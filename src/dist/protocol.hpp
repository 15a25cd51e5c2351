// Wire protocol for the distributed campaign service (DESIGN.md §11): a
// coordinator expands a CampaignSpec into the usual FNV-hashed job list and
// serves it to workers over TCP with pull ("work-stealing") semantics —
// workers ask for a job whenever they are idle, so a fast machine naturally
// drains more of the queue than a slow one and no static partitioning is
// needed.
//
// Framing: u32 little-endian payload length | u8 message type | payload.
// Payloads are util::BinWriter layouts — the same fixed-width little-endian
// primitives the checkpoint format uses, so a frame encoded on any platform
// decodes on any other and doubles cross the wire bit-exactly (the §10.4
// determinism contract extends across process boundaries: a metric value
// computed on a worker must land byte-identical in the coordinator's
// aggregate CSV).
//
// The conversation:
//
//   worker                     coordinator
//     Hello{version,name}  ->
//                          <-  Welcome{version,campaign,total,ckpt_every}
//     JobRequest{}         ->
//                          <-  JobAssign{index,hash,...,experiment_ini}
//     Heartbeat{index}     ->                     (periodic, while running)
//     JobResult{index,rec} ->
//                          <-  ResultAck{accepted}   (false = deduplicated)
//     ...                      (loop)
//                          <-  NoWork{retry_ms}      (queue empty, not done)
//                          <-  Shutdown{reason}      (campaign complete)
//
// Failure semantics live in the coordinator: a worker that disconnects or
// stops heartbeating has its in-flight job requeued; a requeued job that
// still gets a late result is dropped by hash dedup (at-most-once merge).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "campaign/store.hpp"
#include "util/archive.hpp"
#include "util/socket.hpp"

namespace roadrunner::dist {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Upper bound on a frame payload; anything larger is a corrupt or hostile
/// length prefix, rejected before allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64U << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kJobRequest = 3,
  kJobAssign = 4,
  kNoWork = 5,
  kJobResult = 6,
  kResultAck = 7,
  kHeartbeat = 8,
  kShutdown = 9,
};

struct Frame {
  MsgType type{};
  std::string payload;
};

// Each payload is its message's field list (util/archive.hpp), encoded
// in order.

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string worker_name;

  template <class Ar>
  void fields(Ar& ar) {
    ar(version, worker_name);
  }
};

struct Welcome {
  std::uint32_t version = kProtocolVersion;
  std::string campaign_name;
  std::uint64_t total_jobs = 0;
  /// Mid-job autosave period the coordinator wants workers to use
  /// (simulated seconds; 0 disables).
  double checkpoint_every_s = 0.0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(version, campaign_name, total_jobs, checkpoint_every_s);
  }
};

struct JobAssign {
  std::uint64_t job_index = 0;  ///< position in the expansion order
  std::string hash;
  std::uint64_t point_index = 0;
  std::uint64_t seed_index = 0;
  std::uint64_t seed = 0;
  std::string point_label;
  /// The fully resolved experiment, as INI text (IniFile::to_string —
  /// round-trip stable, so the worker reconstructs the identical Job).
  std::string experiment_text;

  template <class Ar>
  void fields(Ar& ar) {
    ar(job_index, hash, point_index, seed_index, seed, point_label,
       experiment_text);
  }
};

struct NoWork {
  std::uint32_t retry_ms = 250;

  template <class Ar>
  void fields(Ar& ar) {
    ar(retry_ms);
  }
};

struct JobResultMsg {
  std::uint64_t job_index = 0;
  campaign::JobRecord record;

  template <class Ar>
  void fields(Ar& ar) {
    ar(job_index, record);
  }
};

struct ResultAck {
  /// False when the coordinator already held a record for this job hash
  /// (the job was requeued and finished elsewhere first).
  bool accepted = true;

  template <class Ar>
  void fields(Ar& ar) {
    ar(accepted);
  }
};

struct Heartbeat {
  std::uint64_t job_index = 0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(job_index);
  }
};

struct Shutdown {
  std::string reason;

  template <class Ar>
  void fields(Ar& ar) {
    ar(reason);
  }
};

/// A message's payload: its field list, in order.
template <class Msg>
std::string encode(const Msg& msg) {
  util::BinWriter w;
  util::save_fields(w, msg);
  return w.take();
}

/// Parses a payload written by encode(). Throws std::runtime_error on a
/// truncated or malformed payload, naming `context` for a count that
/// exceeds the bytes left (BinReader overruns surface as exceptions, never
/// as garbage reads). Trailing bytes are ignored.
template <class Msg>
Msg decode(const std::string& payload, std::string_view context) {
  util::BinReader r{payload};
  Msg msg;
  util::load_fields(r, msg, context);
  return msg;
}

inline std::string encode_hello(const Hello& msg) { return encode(msg); }
inline Hello decode_hello(const std::string& payload) {
  return decode<Hello>(payload, "dist: hello");
}
inline std::string encode_welcome(const Welcome& msg) { return encode(msg); }
inline Welcome decode_welcome(const std::string& payload) {
  return decode<Welcome>(payload, "dist: welcome");
}
inline std::string encode_job_assign(const JobAssign& msg) {
  return encode(msg);
}
inline JobAssign decode_job_assign(const std::string& payload) {
  return decode<JobAssign>(payload, "dist: job assignment");
}
inline std::string encode_no_work(const NoWork& msg) { return encode(msg); }
inline NoWork decode_no_work(const std::string& payload) {
  return decode<NoWork>(payload, "dist: no-work reply");
}
inline std::string encode_job_result(const JobResultMsg& msg) {
  return encode(msg);
}
inline JobResultMsg decode_job_result(const std::string& payload) {
  return decode<JobResultMsg>(payload, "dist: job result");
}
inline std::string encode_result_ack(const ResultAck& msg) {
  return encode(msg);
}
inline ResultAck decode_result_ack(const std::string& payload) {
  return decode<ResultAck>(payload, "dist: result ack");
}
inline std::string encode_heartbeat(const Heartbeat& msg) {
  return encode(msg);
}
inline Heartbeat decode_heartbeat(const std::string& payload) {
  return decode<Heartbeat>(payload, "dist: heartbeat");
}
inline std::string encode_shutdown(const Shutdown& msg) { return encode(msg); }
inline Shutdown decode_shutdown(const std::string& payload) {
  return decode<Shutdown>(payload, "dist: shutdown");
}

/// JobRecord <-> bytes (shared by JobResultMsg and tests); encode_record
/// appends to `out`.
inline void encode_record(const campaign::JobRecord& record,
                          std::string& out) {
  out += encode(record);
}
inline campaign::JobRecord decode_record(const std::string& payload) {
  return decode<campaign::JobRecord>(payload, "dist: job record");
}

/// Sends one framed message. Returns false if the peer has gone away.
bool send_frame(util::Socket& socket, MsgType type,
                const std::string& payload);

/// Receives one framed message. Returns nullopt on clean EOF at a frame
/// boundary; throws on truncation, oversized length prefixes, or timeout.
std::optional<Frame> recv_frame(util::Socket& socket, int timeout_ms = -1);

/// Parses "HOST:PORT" / ":PORT" / "PORT" into (host, port); the host
/// defaults to `default_host`. Throws std::invalid_argument on a missing
/// or malformed port. Port 0 is rejected unless `allow_port_zero` — it is
/// meaningless to connect to, but a coordinator may bind it to request an
/// ephemeral port (--serve=:0; the actual port is printed on startup).
std::pair<std::string, std::uint16_t> parse_endpoint(
    const std::string& text, const std::string& default_host = "127.0.0.1",
    bool allow_port_zero = false);

}  // namespace roadrunner::dist
