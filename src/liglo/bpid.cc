#include "liglo/bpid.h"

#include <cstdlib>

#include "util/strings.h"

namespace bestpeer::liglo {

std::string Bpid::ToString() const {
  return std::to_string(liglo_id) + "/" + std::to_string(node_id);
}

Result<Bpid> Bpid::Parse(std::string_view text) {
  auto parts = Split(text, '/');
  if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
    return Status::InvalidArgument("malformed BPID: " + std::string(text));
  }
  char* end = nullptr;
  unsigned long liglo = std::strtoul(parts[0].c_str(), &end, 10);
  if (*end != '\0') {
    return Status::InvalidArgument("malformed BPID: " + std::string(text));
  }
  unsigned long node = std::strtoul(parts[1].c_str(), &end, 10);
  if (*end != '\0') {
    return Status::InvalidArgument("malformed BPID: " + std::string(text));
  }
  Bpid bpid;
  bpid.liglo_id = static_cast<uint32_t>(liglo);
  bpid.node_id = static_cast<uint32_t>(node);
  return bpid;
}

}  // namespace bestpeer::liglo
