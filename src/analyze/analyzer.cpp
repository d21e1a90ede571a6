#include "analyze/analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "analyze/callgraph.hpp"
#include "analyze/passes.hpp"
#include "analyze/registry_gen.hpp"
#include "common/error.hpp"

namespace lrt::analyze {

namespace fs = std::filesystem;

const std::vector<std::string>& all_pass_names() {
  static const std::vector<std::string> kNames = {
      "layer-dag",        "collective-divergence", "omp-race",
      "fp-reduction",     "hot-path-purity",       "phase-registry",
      "phase-registry-sync", "counter-registry",   "counter-registry-sync",
      "naked-new-delete", "banned-volatile",       "banned-thread",
      "banned-sleep",     "parent-include",        "pragma-once"};
  return kNames;
}

void load_baseline(const std::string& text, Config* config) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string pass;
    if (!(fields >> pass)) continue;
    const auto& names = all_pass_names();
    LRT_CHECK(std::find(names.begin(), names.end(), pass) != names.end(),
              "baseline line " << lineno << ": unknown pass '" << pass << "'");
    if (pass == "layer-dag") {
      std::string from;
      std::string arrow;
      std::string to;
      LRT_CHECK(static_cast<bool>(fields >> from >> arrow >> to) &&
                    arrow == "->",
                "baseline line " << lineno
                                 << ": expected 'layer-dag FROM -> TO'");
      config->baseline_layer_edges.insert(from + "->" + to);
    } else {
      std::string path;
      LRT_CHECK(static_cast<bool>(fields >> path),
                "baseline line " << lineno << ": expected '" << pass
                                 << " PATH'");
      config->baseline_files.insert(pass + ":" + path);
    }
  }
}

std::set<std::string> parse_phases_def(const std::string& text) {
  std::set<std::string> names;
  for (const PhaseDef& def : parse_phases_def_entries(text)) {
    names.insert(def.name);
  }
  return names;
}

void load_hot_tus(const std::string& cmake_text, Config* config) {
  // Whitespace-tokenize the CMake text with '#' comments stripped and
  // parens split into their own tokens; inside each
  // set_source_files_properties(...) call, everything before PROPERTIES
  // is a source path. The block only counts when its property arguments
  // mention "-O3".
  std::vector<std::string> words;
  {
    std::istringstream lines(cmake_text);
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::string word;
      auto flush = [&]() {
        if (!word.empty()) {
          words.push_back(word);
          word.clear();
        }
      };
      for (const char c : line) {
        if (c == ' ' || c == '\t') {
          flush();
        } else if (c == '(' || c == ')') {
          flush();
          words.emplace_back(1, c);
        } else {
          word.push_back(c);
        }
      }
      flush();
    }
  }
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    if (words[i] != "set_source_files_properties" || words[i + 1] != "(") {
      continue;
    }
    std::vector<std::string> files;
    bool in_props = false;
    bool promotes = false;
    int depth = 0;
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      if (words[j] == "(") {
        ++depth;
        continue;
      }
      if (words[j] == ")") {
        if (--depth == 0) break;
        continue;
      }
      std::string clean;  // without surrounding quotes
      for (const char c : words[j]) {
        if (c != '"') clean.push_back(c);
      }
      if (clean == "PROPERTIES") {
        in_props = true;
      } else if (!in_props && !clean.empty()) {
        files.push_back(clean);
      } else if (clean.find("-O3") != std::string::npos) {
        promotes = true;
      }
    }
    if (!promotes) continue;
    for (const std::string& f : files) {
      if (f.size() > 4 && (f.compare(f.size() - 4, 4, ".cpp") == 0 ||
                           f.compare(f.size() - 4, 4, ".hpp") == 0)) {
        config->hot_files.insert("src/" + f);
      }
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  LRT_CHECK(static_cast<bool>(in), "cannot read " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> discover_sources(const std::string& root) {
  std::vector<std::string> out;
  for (const char* top : {"src", "tests", "bench", "examples"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      if (rel.find("analyze_fixtures/") != std::string::npos) continue;
      out.push_back(rel);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Reads (serial — the I/O is ordered and cheap) then lexes (parallel —
/// the lexer is pure per file) every input. Output order matches the
/// input order regardless of thread count: each worker writes only its
/// own index.
std::vector<LexedFile> lex_files(const Config& config,
                                 const std::vector<std::string>& files) {
  std::vector<std::string> texts(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    texts[i] = read_file(config.root + "/" + files[i]);
  }
  std::vector<LexedFile> lexed(files.size());
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(files.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) \
    num_threads(effective_jobs(config.jobs))
#endif
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    lexed[u] = lex(files[u], texts[u]);
  }
  return lexed;
}

}  // namespace

Report analyze(const Config& config, const std::vector<std::string>& files) {
  const std::vector<LexedFile> lexed = lex_files(config, files);
  const CallGraph graph = CallGraph::build(lexed, config.jobs);

  std::vector<Finding> findings;
  PassContext ctx;
  ctx.config = &config;
  ctx.files = &lexed;
  ctx.findings = &findings;
  ctx.graph = &graph;

  if (ctx.enabled("layer-dag")) run_layer_dag(ctx);
  if (ctx.enabled("collective-divergence")) run_collective_divergence(ctx);
  if (ctx.enabled("omp-race")) run_omp_race(ctx);
  if (ctx.enabled("fp-reduction")) run_fp_reduction(ctx);
  if (ctx.enabled("hot-path-purity")) run_hot_path_purity(ctx);
  if (ctx.enabled("counter-registry")) run_counter_registry(ctx);
  if (ctx.enabled("counter-registry-sync")) run_counter_registry_sync(ctx);
  if (ctx.enabled("phase-registry")) {
    run_phase_registry(ctx);
    const fs::path tools_dir = fs::path(config.root) / "tools";
    if (fs::is_directory(tools_dir)) {
      std::vector<fs::path> scripts;
      for (const auto& entry : fs::directory_iterator(tools_dir)) {
        if (entry.is_regular_file() && entry.path().extension() == ".sh") {
          scripts.push_back(entry.path());
        }
      }
      std::sort(scripts.begin(), scripts.end());
      for (const fs::path& script : scripts) {
        run_phase_registry_shell(
            ctx, fs::relative(script, config.root).generic_string(),
            read_file(script.string()));
      }
    }
  }
  if (ctx.enabled("phase-registry-sync")) run_phase_registry_sync(ctx);
  run_pattern_gates(ctx);

  // Resolve inline suppressions, then the baseline. Passes may have
  // pre-baselined findings themselves (layer-dag edge/cycle matching).
  std::map<std::string, const LexedFile*> by_path;
  for (const LexedFile& file : lexed) by_path[file.path] = &file;
  for (Finding& f : findings) {
    if (f.status != Finding::Status::kNew) continue;
    const auto it = by_path.find(f.file);
    if (it != by_path.end() && it->second->suppressed(f.pass, f.line)) {
      f.status = Finding::Status::kSuppressed;
      continue;
    }
    if (config.baseline_files.count(f.pass + ":" + f.file) != 0) {
      f.status = Finding::Status::kBaselined;
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.pass < b.pass;
            });

  Report report;
  report.findings = std::move(findings);
  for (const Finding& f : report.findings) {
    switch (f.status) {
      case Finding::Status::kNew: ++report.new_count; break;
      case Finding::Status::kSuppressed: ++report.suppressed_count; break;
      case Finding::Status::kBaselined: ++report.baselined_count; break;
    }
  }
  return report;
}

Report analyze_repo(const Config& config) {
  return analyze(config, discover_sources(config.root));
}

obs::json::Value report_to_json(const Config& config, const Report& report) {
  using obs::json::Value;
  auto str = [](const std::string& s) {
    Value v;
    v.kind = Value::Kind::kString;
    v.string = s;
    return v;
  };
  auto num = [](double d) {
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = d;
    return v;
  };

  Value findings;
  findings.kind = Value::Kind::kArray;
  for (const Finding& f : report.findings) {
    Value item;
    item.kind = Value::Kind::kObject;
    item.object.emplace_back("pass", str(f.pass));
    item.object.emplace_back("file", str(f.file));
    item.object.emplace_back("line", num(static_cast<double>(f.line)));
    item.object.emplace_back("message", str(f.message));
    const char* status = f.status == Finding::Status::kNew ? "new"
                         : f.status == Finding::Status::kSuppressed
                             ? "suppressed"
                             : "baselined";
    item.object.emplace_back("status", str(status));
    findings.array.push_back(std::move(item));
  }

  Value passes;
  passes.kind = Value::Kind::kArray;
  for (const std::string& name : all_pass_names()) {
    if (config.passes.empty() || config.passes.count(name) != 0) {
      passes.array.push_back(str(name));
    }
  }

  Value summary;
  summary.kind = Value::Kind::kObject;
  summary.object.emplace_back("new", num(static_cast<double>(report.new_count)));
  summary.object.emplace_back(
      "suppressed", num(static_cast<double>(report.suppressed_count)));
  summary.object.emplace_back(
      "baselined", num(static_cast<double>(report.baselined_count)));

  Value root;
  root.kind = Value::Kind::kObject;
  root.object.emplace_back("schema", str("lrt.analyze/1"));
  root.object.emplace_back("passes", std::move(passes));
  root.object.emplace_back("summary", std::move(summary));
  root.object.emplace_back("findings", std::move(findings));
  return root;
}

std::string report_to_text(const Report& report, bool verbose) {
  std::ostringstream os;
  for (const Finding& f : report.findings) {
    if (f.status == Finding::Status::kNew) {
      os << f.file << ":" << f.line << ": [" << f.pass << "] " << f.message
         << "\n";
    } else if (verbose) {
      const char* tag =
          f.status == Finding::Status::kSuppressed ? "suppressed" : "baselined";
      os << f.file << ":" << f.line << ": [" << f.pass << ", " << tag << "] "
         << f.message << "\n";
    }
  }
  os << "lrt-analyze: " << report.new_count << " new, "
     << report.baselined_count << " baselined, " << report.suppressed_count
     << " suppressed finding(s)\n";
  return os.str();
}

}  // namespace lrt::analyze
