#include "pag/validate.hpp"

#include <sstream>

namespace parcfl::pag {

namespace {

void report(std::vector<std::string>& errors, std::size_t edge_index, const Edge& e,
            const std::string& msg) {
  std::ostringstream os;
  os << "edge #" << edge_index << " (" << to_string(e.kind) << " " << e.dst.value()
     << " <- " << e.src.value() << "): " << msg;
  errors.push_back(os.str());
}

}  // namespace

const char* edge_violation(EdgeKind kind, NodeKind dst, NodeKind src,
                           std::uint32_t aux, std::uint32_t fields,
                           std::uint32_t call_sites) {
  const bool locals = dst == NodeKind::kLocal && src == NodeKind::kLocal;
  switch (kind) {
    case EdgeKind::kNew:
      if (dst == NodeKind::kObject) return "new edge must target a variable";
      if (src != NodeKind::kObject) return "new edge must source an object";
      return nullptr;
    case EdgeKind::kAssignLocal:
      return locals ? nullptr : "assignl must connect two locals";
    case EdgeKind::kAssignGlobal:
      if (dst == NodeKind::kObject || src == NodeKind::kObject)
        return "assigng cannot involve objects";
      if (dst != NodeKind::kGlobal && src != NodeKind::kGlobal)
        return "assigng must involve at least one global";
      return nullptr;
    case EdgeKind::kLoad:
    case EdgeKind::kStore:
      if (!locals) return "ld/st edges connect only locals";
      return aux < fields ? nullptr : "field id out of range";
    case EdgeKind::kParam:
    case EdgeKind::kRet:
      if (!locals) return "param/ret edges connect only locals";
      return aux < call_sites ? nullptr : "call-site id out of range";
  }
  return "unknown edge kind";
}

std::vector<std::string> validate(const Pag& pag) {
  std::vector<std::string> errors;

  for (std::size_t i = 0; i < pag.edges().size(); ++i) {
    const Edge& e = pag.edges()[i];
    if (const char* msg =
            edge_violation(e.kind, pag.kind(e.dst), pag.kind(e.src), e.aux,
                           pag.field_count(), pag.call_site_count()))
      report(errors, i, e, msg);
  }

  // Metadata sanity.
  for (std::uint32_t i = 0; i < pag.node_count(); ++i) {
    const NodeInfo& info = pag.node(NodeId(i));
    if (info.type.valid() && info.type.value() >= pag.type_count()) {
      std::ostringstream os;
      os << "node " << i << ": type id out of range";
      errors.push_back(os.str());
    }
    if (info.method.valid() && info.method.value() >= pag.method_count()) {
      std::ostringstream os;
      os << "node " << i << ": method id out of range";
      errors.push_back(os.str());
    }
    if (info.kind == NodeKind::kGlobal && info.method.valid()) {
      std::ostringstream os;
      os << "node " << i << ": globals must not belong to a method";
      errors.push_back(os.str());
    }
  }

  return errors;
}

bool is_well_formed(const Pag& pag) { return validate(pag).empty(); }

}  // namespace parcfl::pag
