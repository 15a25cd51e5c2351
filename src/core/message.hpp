// Messages exchanged between agents. The Core Simulator is "based on a
// messaging scheme between simulated agents" (§5.1): strategies communicate
// exclusively by sending typed messages whose wire size the Communication
// module charges.
#pragma once

#include <cstdint>
#include <string>

#include "comm/channel.hpp"
#include "core/agent.hpp"
#include "ml/serialize.hpp"

namespace roadrunner::core {

struct Message {
  AgentId from = kNoAgent;
  AgentId to = kNoAgent;
  comm::ChannelKind channel = comm::ChannelKind::kV2C;
  /// Strategy-defined discriminator, e.g. "global-model", "model-reply",
  /// "request". Kept as a string for experimentation flexibility (Req. 5);
  /// its bytes are covered by the fixed header overhead.
  std::string tag;
  /// Strategy-defined round counter; -1 when not applicable.
  int round = -1;
  /// Originating agent for relayed payloads (e.g. vehicle -> RSU -> cloud);
  /// kNoAgent when the payload originates at `from`.
  AgentId origin = kNoAgent;
  /// FedAvg data amount accompanying a model (paper Fig. 3: d_i travels
  /// with w_i).
  double data_amount = 0.0;
  /// Model payload; empty for control messages.
  ml::Weights model;
  /// Additional payload bytes (e.g. raw sensor data in centralized ML).
  std::uint64_t extra_bytes = 0;
  /// Set at delivery time by an active payload_corruption fault: the bytes
  /// arrived but the content is garbage. Strategies must detect (checksum,
  /// modeled as this flag) and discard; using a corrupted payload is a
  /// strategy bug.
  bool corrupted = false;

  /// Fixed per-message protocol overhead (headers, ids, tag).
  static constexpr std::uint64_t kHeaderBytes = 256;

  /// Archive field list (util/archive.hpp). Agent ids are range-checked by
  /// the caller, which knows the agent count.
  template <class Ar>
  void fields(Ar& ar) {
    ar(from, to, channel, tag, round, origin, data_amount, model,
       extra_bytes, corrupted);
    ar.check(static_cast<std::size_t>(channel) < comm::kChannelKindCount,
             "bad channel kind in snapshot");
  }

  /// Bytes the communication module charges for this message.
  [[nodiscard]] std::uint64_t wire_bytes() const {
    return kHeaderBytes + ml::weights_byte_size(model) + extra_bytes;
  }
};

}  // namespace roadrunner::core
