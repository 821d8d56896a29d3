#include "audit/audit.hpp"

#include <ostream>

namespace pclass {
namespace audit {
namespace {

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
}

}  // namespace

AuditReport audit_classifier(const expcuts::ExpCutsClassifier& cls) {
  AuditOptions opts;
  opts.rule_count = static_cast<u32>(cls.rule_count());
  return audit_flat_image(cls.flat(), cls.schedule().depth(), opts);
}

AuditReport audit_image(const expcuts::LoadedImage& li, u32 rule_count) {
  AuditOptions opts;
  opts.rule_count = rule_count;
  return audit_flat_image(li.image, li.schedule.depth(), opts);
}

namespace {

void write_violations(std::ostream& os, const AuditReport& report,
                      std::string_view indent) {
  os << "\"ok\": " << (report.ok() ? "true" : "false") << ",\n"
     << indent << "\"truncated\": " << (report.truncated ? "true" : "false")
     << ",\n"
     << indent << "\"stats\": {"
     << "\"nodes_visited\": " << report.stats.nodes_visited
     << ", \"leaf_ptrs\": " << report.stats.leaf_ptrs
     << ", \"words_total\": " << report.stats.words_total
     << ", \"words_reachable\": " << report.stats.words_reachable
     << ", \"max_depth\": " << report.stats.max_depth << "},\n"
     << indent << "\"violations\": [";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const Violation& v = report.violations[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "  {\"kind\": \""
       << to_string(v.kind) << "\", \"offset\": " << v.offset
       << ", \"path\": [";
    for (std::size_t k = 0; k < v.path.size(); ++k) {
      os << (k == 0 ? "" : ", ") << v.path[k];
    }
    os << "], \"detail\": \"";
    json_escape(os, v.detail);
    os << "\"";
    if (!v.region.empty()) {
      os << ", \"region\": \"";
      json_escape(os, v.region);
      os << "\"";
    }
    os << "}";
  }
  if (!report.violations.empty()) os << "\n" << indent;
  os << "]";
}

}  // namespace

void write_json(std::ostream& os, const AuditReport& report,
                std::string_view subject) {
  write_json(os, report, subject, nullptr);
}

void write_json(std::ostream& os, const AuditReport& report,
                std::string_view subject,
                const analysis::SemanticReport* semantic) {
  os << "{\n  \"schema\": \"pclass-audit-v1\",\n  \"subject\": \"";
  json_escape(os, subject);
  os << "\",\n  ";
  write_violations(os, report, "  ");
  if (semantic != nullptr) {
    u64 live = 0;
    for (const u8 w : semantic->winner) live += w;
    os << ",\n  \"semantic\": {\n    ";
    write_violations(os, semantic->report, "    ");
    os << ",\n    \"regions\": " << semantic->regions
       << ",\n    \"memo_hits\": " << semantic->memo_hits
       << ",\n    \"winning_rules\": " << live
       << ",\n    \"rules\": " << semantic->winner.size() << "\n  }";
  }
  os << "\n}\n";
}

}  // namespace audit
}  // namespace pclass
