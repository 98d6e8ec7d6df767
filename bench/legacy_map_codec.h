// The legacy v1 map wire encoder, kept outside the runtime.  The runtime
// only writes v2, but its readers (deserialize_map, absorb_serialized_map,
// load_checkpoint) still auto-detect and decode v1 so that checkpoints
// written before the format change load.  Producing v1 bytes is therefore
// only needed by the backward-compat tests and the v1-vs-v2 codec bench.
#pragma once

#include <cstdint>

#include "common/serialize.h"
#include "core/red_obj.h"

namespace smart {

/// Wire format v1: u64 entry count, then {i32 key, string type_name,
/// object payload} per entry.
inline void serialize_map_v1(const CombinationMap& map, Buffer& out) {
  Writer w(out);
  w.write<std::uint64_t>(map.size());
  for (const auto& [key, obj] : map) {
    w.write<std::int32_t>(key);
    w.write_string(obj->type_name());
    obj->serialize(w);
  }
}

}  // namespace smart
