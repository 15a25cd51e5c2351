// Serialization helpers shared by the strategies' save_state/load_state
// implementations (checkpoint support). Weights ride on the existing wire
// format (ml/serialize.hpp) inside a length-prefixed byte field, so model
// payloads in snapshots are identical to what the comm layer transmits.
// Both directions work in place: no intermediate byte vector.
#pragma once

#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "ml/fedavg.hpp"
#include "ml/serialize.hpp"
#include "strategy/context.hpp"
#include "util/binary_io.hpp"

namespace roadrunner::strategy::io {

/// Writes the same bytes as `out.bytes(ml::serialize_weights(w))`, encoded
/// straight from the tensors: the u64 length is back-patched afterwards.
inline void write_weights(util::BinWriter& out, const ml::Weights& w) {
  const std::size_t at = out.size();
  out.u64(0);
  ml::encode_weights(w, [&out](const void* data, std::size_t size) {
    out.raw(data, size);
  });
  out.patch_u64(at, out.size() - at - sizeof(std::uint64_t));
}

inline ml::Weights read_weights(util::BinReader& in) {
  const std::string_view bytes = in.view(in.u64());
  if (bytes.empty()) return {};
  return ml::deserialize_weights(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

inline void write_id_set(util::BinWriter& out, const std::set<AgentId>& s) {
  out.u64(s.size());
  for (AgentId id : s) out.u64(id);
}

inline std::set<AgentId> read_id_set(util::BinReader& in) {
  std::set<AgentId> s;
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) s.insert(in.u64());
  return s;
}

inline void write_id_vector(util::BinWriter& out,
                            const std::vector<AgentId>& v) {
  out.u64(v.size());
  for (AgentId id : v) out.u64(id);
}

inline std::vector<AgentId> read_id_vector(util::BinReader& in) {
  std::vector<AgentId> v;
  const std::uint64_t n = in.u64();
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(in.u64());
  return v;
}

inline void write_weighted_models(util::BinWriter& out,
                                  const std::vector<ml::WeightedModel>& v) {
  out.u64(v.size());
  for (const ml::WeightedModel& m : v) {
    write_weights(out, m.weights);
    out.f64(m.data_amount);
  }
}

inline std::vector<ml::WeightedModel> read_weighted_models(
    util::BinReader& in) {
  std::vector<ml::WeightedModel> v;
  const std::uint64_t n = in.u64();
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ml::WeightedModel m;
    m.weights = read_weights(in);
    m.data_amount = in.f64();
    v.push_back(std::move(m));
  }
  return v;
}

/// map<AgentId, int> — the recurring "who trained for which round" shape.
inline void write_round_map(util::BinWriter& out,
                            const std::map<AgentId, int>& m) {
  out.u64(m.size());
  for (const auto& [id, round] : m) {
    out.u64(id);
    out.i64(round);
  }
}

inline std::map<AgentId, int> read_round_map(util::BinReader& in) {
  std::map<AgentId, int> m;
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const AgentId id = in.u64();
    m[id] = static_cast<int>(in.i64());
  }
  return m;
}

}  // namespace roadrunner::strategy::io
