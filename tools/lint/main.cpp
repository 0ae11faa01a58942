// rsf-lint — CLI: gather files (explicit args, --src-root walks,
// compile_commands.json), run the determinism-contract rules, diff
// against the baseline ratchet.
//
// Exit codes: 0 clean (or fully baselined), 1 findings or stale
// baseline entries, 2 usage / IO error.
//
// The baseline is a ratchet, not a suppression dump: an entry matches
// a finding by (rule, path, whitespace-normalized source line), so it
// survives line drift but dies with the code it describes — and a
// baseline entry with no matching finding FAILS the run, forcing the
// file to only ever shrink.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace {

namespace fs = std::filesystem;
using rsflint::Finding;

struct BaselineEntry {
  std::string rule;
  std::string path;
  std::string reason;
  std::string fingerprint;
  bool matched = false;
};

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

/// Report paths relative to the working directory when they live
/// under it, so baseline entries are repo-relative and portable.
std::string display_path(const std::string& path) {
  std::error_code ec;
  const fs::path rel = fs::proximate(fs::path(path), fs::current_path(), ec);
  if (ec) return path;
  const std::string s = rel.generic_string();
  if (s.rfind("..", 0) == 0 || s.empty()) return path;
  return s;
}

/// Minimal compile_commands.json reader: pulls every "file" value.
/// The format is machine-generated by CMake, so a targeted scan is
/// dependable without a JSON library.
std::vector<std::string> compdb_files(const std::string& text) {
  std::vector<std::string> out;
  const std::string key = "\"file\"";
  std::size_t at = 0;
  while ((at = text.find(key, at)) != std::string::npos) {
    const std::size_t colon = text.find(':', at + key.size());
    if (colon == std::string::npos) break;
    const std::size_t q0 = text.find('"', colon);
    if (q0 == std::string::npos) break;
    const std::size_t q1 = text.find('"', q0 + 1);
    if (q1 == std::string::npos) break;
    std::string val = text.substr(q0 + 1, q1 - q0 - 1);
    // Unescape the one sequence CMake emits in paths.
    std::string clean;
    for (std::size_t i = 0; i < val.size(); ++i) {
      if (val[i] == '\\' && i + 1 < val.size()) {
        clean.push_back(val[++i]);
      } else {
        clean.push_back(val[i]);
      }
    }
    out.push_back(clean);
    at = q1;
  }
  return out;
}

std::vector<BaselineEntry> load_baseline(const std::string& text) {
  std::vector<BaselineEntry> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    // RULE<TAB>path<TAB>reason<TAB>fingerprint (fingerprint may
    // contain tabs-turned-spaces; it is the final field).
    BaselineEntry e;
    std::size_t a = line.find('\t');
    std::size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    std::size_t c = b == std::string::npos ? b : line.find('\t', b + 1);
    if (c == std::string::npos) {
      std::cerr << "rsf-lint: malformed baseline line (want "
                   "RULE\\tpath\\treason\\tfingerprint): "
                << line << "\n";
      continue;
    }
    e.rule = line.substr(0, a);
    e.path = line.substr(a + 1, b - a - 1);
    e.reason = line.substr(b + 1, c - b - 1);
    e.fingerprint = line.substr(c + 1);
    out.push_back(std::move(e));
  }
  return out;
}

void usage() {
  std::cerr <<
      "usage: rsf-lint [options] [files...]\n"
      "  --src-root DIR      lint every *.hpp/*.cpp under DIR (repeatable)\n"
      "  --compdb FILE       add the TUs listed in compile_commands.json\n"
      "                      (filtered to --src-root when given)\n"
      "  --metrics-doc FILE  enable rule D5 against this metrics document\n"
      "  --baseline FILE     ratchet file: listed findings pass, stale entries fail\n"
      "  --update-baseline   rewrite --baseline with the current findings\n"
      "  --rule LIST         comma-separated subset of D0,D1,D2,D3,D4,D5\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::vector<std::string> explicit_files;
  std::string compdb_path;
  std::string metrics_doc_path;
  std::string baseline_path;
  bool update_baseline = false;
  rsflint::AnalyzerConfig cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rsf-lint: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--src-root") roots.push_back(next());
    else if (arg == "--compdb") compdb_path = next();
    else if (arg == "--metrics-doc") metrics_doc_path = next();
    else if (arg == "--baseline") baseline_path = next();
    else if (arg == "--update-baseline") update_baseline = true;
    else if (arg == "--rule") {
      std::istringstream ss(next());
      std::string r;
      while (std::getline(ss, r, ',')) {
        if (!r.empty()) cfg.rules.insert(r);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "rsf-lint: unknown option " << arg << "\n";
      usage();
      return 2;
    } else {
      explicit_files.push_back(arg);
    }
  }

  // ---- gather the file set (sorted + deduped: output order is part
  // of the tool's own determinism contract) ----
  std::set<std::string> files;
  for (const std::string& f : explicit_files) files.insert(display_path(f));
  for (const std::string& root : roots) {
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      std::cerr << "rsf-lint: --src-root " << root << " is not a directory\n";
      return 2;
    }
    for (fs::recursive_directory_iterator it(root, ec), end; it != end; it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        files.insert(display_path(it->path().string()));
      }
    }
  }
  if (!compdb_path.empty()) {
    bool ok = false;
    const std::string text = read_file(compdb_path, &ok);
    if (!ok) {
      std::cerr << "rsf-lint: cannot read " << compdb_path << "\n";
      return 2;
    }
    for (const std::string& f : compdb_files(text)) {
      const std::string rel = display_path(f);
      if (!roots.empty()) {
        bool under = false;
        for (const std::string& root : roots) {
          const std::string r = display_path(root);
          if (rel.rfind(r, 0) == 0) {
            under = true;
            break;
          }
        }
        if (!under) continue;
      }
      std::error_code ec;
      if (fs::is_regular_file(f, ec)) files.insert(rel);
    }
  }
  if (files.empty()) {
    std::cerr << "rsf-lint: no input files (pass files, --src-root or --compdb)\n";
    return 2;
  }

  if (!metrics_doc_path.empty()) {
    bool ok = false;
    cfg.metrics_doc = read_file(metrics_doc_path, &ok);
    if (!ok) {
      std::cerr << "rsf-lint: cannot read " << metrics_doc_path << "\n";
      return 2;
    }
    cfg.metrics_doc_loaded = true;
  } else if (cfg.rules.count("D5") > 0) {
    std::cerr << "rsf-lint: --rule D5 needs --metrics-doc\n";
    return 2;
  }

  // ---- lex + analyze ----
  std::vector<rsflint::SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& path : files) {
    bool ok = false;
    const std::string content = read_file(path, &ok);
    if (!ok) {
      std::cerr << "rsf-lint: cannot read " << path << "\n";
      return 2;
    }
    rsflint::SourceFile sf;
    sf.path = path;
    sf.lex(content);
    sources.push_back(std::move(sf));
  }
  std::vector<Finding> findings = rsflint::analyze(sources, cfg);

  // ---- baseline ratchet ----
  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty() && !update_baseline) {
    bool ok = false;
    const std::string text = read_file(baseline_path, &ok);
    if (!ok) {
      std::cerr << "rsf-lint: cannot read baseline " << baseline_path << "\n";
      return 2;
    }
    baseline = load_baseline(text);
  }

  std::vector<const Finding*> fresh;
  for (const Finding& f : findings) {
    bool matched = false;
    for (BaselineEntry& e : baseline) {
      if (!e.matched && e.rule == f.rule && e.path == f.path &&
          e.fingerprint == f.fingerprint) {
        e.matched = true;
        matched = true;
        break;
      }
    }
    if (!matched) fresh.push_back(&f);
  }

  if (update_baseline) {
    if (baseline_path.empty()) {
      std::cerr << "rsf-lint: --update-baseline needs --baseline\n";
      return 2;
    }
    std::ofstream out(baseline_path, std::ios::trunc);
    out << "# rsf-lint baseline — a ratchet, not a dump: entries may only be\n"
           "# removed (fix the finding) and every entry carries its reason.\n"
           "# Format: RULE<TAB>path<TAB>reason<TAB>normalized source line.\n";
    for (const Finding& f : findings) {
      out << f.rule << '\t' << f.path << '\t' << "TODO: justify or fix" << '\t'
          << f.fingerprint << '\n';
    }
    std::cout << "rsf-lint: wrote " << findings.size() << " entries to " << baseline_path
              << "\n";
    return 0;
  }

  int rc = 0;
  for (const Finding* f : fresh) {
    std::cout << f->path << ":" << f->line << ": [" << f->rule << "] " << f->message
              << "\n";
    rc = 1;
  }
  for (const BaselineEntry& e : baseline) {
    if (!e.matched) {
      std::cout << e.path << ": stale baseline entry [" << e.rule << "] \""
                << e.fingerprint << "\" — the finding is gone; delete the entry "
                << "(the ratchet only shrinks)\n";
      rc = 1;
    }
  }
  const std::size_t suppressed = findings.size() - fresh.size();
  if (rc == 0) {
    std::cout << "rsf-lint: " << files.size() << " files clean";
    if (suppressed > 0) std::cout << " (" << suppressed << " baselined)";
    std::cout << "\n";
  } else {
    std::cout << "rsf-lint: " << fresh.size() << " finding(s) across " << files.size()
              << " files\n";
  }
  return rc;
}
