// Tests for the distributed campaign service: wire-protocol round trips
// (doubles must survive bit-exactly — the §10.4 determinism contract across
// process boundaries), endpoint parsing, and the coordinator/worker loop
// itself over loopback TCP —
// including the headline guarantee that a multi-worker distributed run
// produces records and an aggregate CSV byte-identical to the in-process
// engine, and the failure paths: requeue after a worker vanishes
// mid-job, at-most-once merge of duplicate results, and the requeue cap
// on deterministically failing jobs.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "util/socket.hpp"

namespace roadrunner {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& tag) {
  const auto dir = fs::path{::testing::TempDir()} / ("rr_dist_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

campaign::JobRecord make_record(const std::string& hash,
                                std::size_t point_index,
                                std::size_t seed_index) {
  campaign::JobRecord record;
  record.hash = hash;
  record.point_index = point_index;
  record.seed_index = seed_index;
  record.seed = 1000 + point_index * 10 + seed_index;
  record.point_label = "p" + std::to_string(point_index);
  record.strategy_name = "federated";
  record.wall_seconds = 0.25;
  record.metrics = {{"final_accuracy", 0.5 + 0.001 * seed_index},
                    {"rounds_completed", 2.0}};
  return record;
}

/// Small, fast campaign shared by the loopback tests: 2 points x 2 seeds
/// on a 8-vehicle logreg problem (a few hundred ms per job).
campaign::CampaignSpec loopback_spec() {
  campaign::CampaignSpec spec;
  spec.name = "dist_loopback";
  spec.base = util::IniFile::parse(R"(
[scenario]
vehicles = 8
horizon_s = 900
[city]
duration_s = 900
[data]
dataset = blobs
train_pool = 400
test_size = 80
partition = iid
samples_per_vehicle = 20
[train]
model = logreg
epochs = 1
[strategy]
name = federated
rounds = 2
participants = 3
round_duration_s = 30
)");
  spec.grid = {{"strategy", "participants", {"2", "3"}}};
  spec.seeds_per_point = 2;
  spec.base_seed = 41;
  return spec;
}

/// Serializes records for bit-exact comparison. `wall_seconds` is host
/// wall-clock — explicitly outside the determinism contract — so it is
/// zeroed before encoding; every other field (including every metric
/// double) must match bit-for-bit.
std::string records_bytes(const std::vector<campaign::JobRecord>& records) {
  std::string out;
  for (campaign::JobRecord record : records) {
    record.wall_seconds = 0.0;
    dist::encode_record(record, out);
  }
  return out;
}

// ---- endpoint parsing -----------------------------------------------------

TEST(DistProtocol, ParsesEndpoints) {
  EXPECT_EQ(dist::parse_endpoint("9000"),
            (std::pair<std::string, std::uint16_t>{"127.0.0.1", 9000}));
  EXPECT_EQ(dist::parse_endpoint(":9000"),
            (std::pair<std::string, std::uint16_t>{"127.0.0.1", 9000}));
  EXPECT_EQ(dist::parse_endpoint("10.0.0.7:80"),
            (std::pair<std::string, std::uint16_t>{"10.0.0.7", 80}));
  EXPECT_EQ(dist::parse_endpoint("65535"),
            (std::pair<std::string, std::uint16_t>{"127.0.0.1", 65535}));
  // Port 0 is only valid where an ephemeral bind makes sense (--serve=:0).
  EXPECT_EQ(dist::parse_endpoint(":0", "127.0.0.1", true),
            (std::pair<std::string, std::uint16_t>{"127.0.0.1", 0}));
}

TEST(DistProtocol, RejectsBadEndpoints) {
  EXPECT_THROW(dist::parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW(dist::parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW(dist::parse_endpoint("host:abc"), std::invalid_argument);
  EXPECT_THROW(dist::parse_endpoint("0"), std::invalid_argument);
  EXPECT_THROW(dist::parse_endpoint("65536"), std::invalid_argument);
  EXPECT_THROW(dist::parse_endpoint("host:12x"), std::invalid_argument);
}

// ---- payload round trips --------------------------------------------------

TEST(DistProtocol, MessageRoundTrips) {
  const dist::Hello hello{7, "worker-3"};
  const dist::Hello hello2 = dist::decode_hello(dist::encode_hello(hello));
  EXPECT_EQ(hello2.version, 7U);
  EXPECT_EQ(hello2.worker_name, "worker-3");

  dist::Welcome welcome;
  welcome.campaign_name = "sweep";
  welcome.total_jobs = 42;
  welcome.checkpoint_every_s = 0.1;  // not exactly representable: bit test
  const dist::Welcome welcome2 =
      dist::decode_welcome(dist::encode_welcome(welcome));
  EXPECT_EQ(welcome2.campaign_name, "sweep");
  EXPECT_EQ(welcome2.total_jobs, 42U);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(welcome2.checkpoint_every_s),
            std::bit_cast<std::uint64_t>(0.1));

  dist::JobAssign assign;
  assign.job_index = 3;
  assign.hash = "00ff00ff00ff00ff";
  assign.point_index = 1;
  assign.seed_index = 2;
  assign.seed = 0xDEADBEEFULL;
  assign.point_label = "vehicles=50";
  assign.experiment_text = "[scenario]\nseed = 9\n";
  const dist::JobAssign assign2 =
      dist::decode_job_assign(dist::encode_job_assign(assign));
  EXPECT_EQ(assign2.job_index, 3U);
  EXPECT_EQ(assign2.hash, assign.hash);
  EXPECT_EQ(assign2.seed, assign.seed);
  EXPECT_EQ(assign2.experiment_text, assign.experiment_text);

  EXPECT_EQ(dist::decode_no_work(dist::encode_no_work({123})).retry_ms, 123U);
  EXPECT_TRUE(dist::decode_result_ack(dist::encode_result_ack({true})).accepted);
  EXPECT_FALSE(
      dist::decode_result_ack(dist::encode_result_ack({false})).accepted);
  EXPECT_EQ(dist::decode_heartbeat(dist::encode_heartbeat({9})).job_index, 9U);
  EXPECT_EQ(dist::decode_shutdown(dist::encode_shutdown({"done"})).reason,
            "done");
}

TEST(DistProtocol, RecordsSurviveTheWireBitExactly) {
  campaign::JobRecord record = make_record("a1b2c3d4e5f60718", 2, 1);
  // Values chosen to be hostile to text formatting: a subnormal, a
  // negative zero, and an irrational-ish accumulation result.
  record.metrics = {{"subnormal", 4.9406564584124654e-324},
                    {"neg_zero", -0.0},
                    {"third", 1.0 / 3.0}};
  std::string bytes;
  dist::encode_record(record, bytes);
  const campaign::JobRecord back = dist::decode_record(bytes);
  ASSERT_EQ(back.metrics.size(), record.metrics.size());
  for (std::size_t i = 0; i < record.metrics.size(); ++i) {
    EXPECT_EQ(back.metrics[i].first, record.metrics[i].first);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.metrics[i].second),
              std::bit_cast<std::uint64_t>(record.metrics[i].second));
  }
  EXPECT_EQ(back.hash, record.hash);
  EXPECT_EQ(back.point_label, record.point_label);
  EXPECT_EQ(back.seed, record.seed);

  dist::JobResultMsg msg;
  msg.job_index = 17;
  msg.record = record;
  const dist::JobResultMsg msg2 =
      dist::decode_job_result(dist::encode_job_result(msg));
  EXPECT_EQ(msg2.job_index, 17U);
  EXPECT_EQ(msg2.record.hash, record.hash);
}

TEST(DistProtocol, TruncatedPayloadThrows) {
  const std::string payload = dist::encode_hello({1, "worker"});
  EXPECT_THROW(dist::decode_hello(payload.substr(0, payload.size() - 2)),
               std::runtime_error);
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(DistProtocol, EncodedBytesArePinned) {
  // One payload per message type, pinned byte for byte: the wire layout is
  // part of the protocol version, so a change here needs a version bump.
  dist::JobAssign assign;
  assign.job_index = 3;
  assign.hash = "ab";
  assign.point_index = 1;
  assign.seed_index = 2;
  assign.seed = 0xDEADBEEFULL;
  assign.point_label = "p";
  assign.experiment_text = "[s]";
  campaign::JobRecord record;
  record.hash = "h";
  record.point_index = 4;
  record.seed_index = 5;
  record.seed = 6;
  record.point_label = "l";
  record.strategy_name = "fl";
  record.wall_seconds = 0.5;
  record.metrics = {{"m", -0.0}, {"n", 0.1}};
  std::string record_bytes;
  dist::encode_record(record, record_bytes);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {hex(dist::encode_hello({7, "w"})),
       "07000000010000000000000077"},
      {hex(dist::encode_welcome({1, "c", 42, 0.1})),
       "010000000100000000000000632a000000000000009a9999999999b9"
       "3f"},
      {hex(dist::encode_job_assign(assign)),
       "03000000000000000200000000000000616201000000000000000200"
       "000000000000efbeadde000000000100000000000000700300000000"
       "0000005b735d"},
      {hex(dist::encode_no_work({250})),
       "fa000000"},
      {hex(dist::encode_job_result({17, record})),
       "11000000000000000100000000000000680400000000000000050000"
       "0000000000060000000000000001000000000000006c020000000000"
       "0000666c000000000000e03f02000000000000000100000000000000"
       "6d000000000000008001000000000000006e9a9999999999b93f"},
      {hex(dist::encode_result_ack({false})),
       "00"},
      {hex(dist::encode_heartbeat({9})),
       "0900000000000000"},
      {hex(dist::encode_shutdown({"done"})),
       "0400000000000000646f6e65"},
      {hex(record_bytes),
       "01000000000000006804000000000000000500000000000000060000"
       "000000000001000000000000006c0200000000000000666c00000000"
       "0000e03f020000000000000001000000000000006d00000000000000"
       "8001000000000000006e9a9999999999b93f"},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].first, cases[i].second) << "message " << i;
  }
}

TEST(DistProtocol, HostileMetricCountIsRejectedBeforeAllocation) {
  campaign::JobRecord record;
  record.metrics = {{"m", 1.0}};
  std::string bytes;
  dist::encode_record(record, bytes);
  // The u64 metric count sits just before the last metric's 17 bytes
  // (u64 name length, one name byte, f64 value).
  const std::size_t count_at = bytes.size() - 17 - 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[count_at + i] = '\x7f';
  EXPECT_THROW((void)dist::decode_record(bytes), std::runtime_error);
}

// ---- framing over a real socket -------------------------------------------

TEST(DistProtocol, FramesTravelOverLoopback) {
  util::Listener listener{"127.0.0.1", 0};
  util::Socket client = util::Socket::connect_to("127.0.0.1", listener.port());
  auto server = listener.accept(2000);
  ASSERT_TRUE(server.has_value());

  ASSERT_TRUE(dist::send_frame(client, dist::MsgType::kHello,
                               dist::encode_hello({1, "w"})));
  ASSERT_TRUE(dist::send_frame(client, dist::MsgType::kJobRequest, {}));
  auto f1 = dist::recv_frame(*server, 2000);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, dist::MsgType::kHello);
  EXPECT_EQ(dist::decode_hello(f1->payload).worker_name, "w");
  auto f2 = dist::recv_frame(*server, 2000);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, dist::MsgType::kJobRequest);
  EXPECT_TRUE(f2->payload.empty());

  client.close();
  EXPECT_FALSE(dist::recv_frame(*server, 2000).has_value());  // clean EOF
}

TEST(DistProtocol, OversizedFrameIsRejectedBeforeAllocation) {
  util::Listener listener{"127.0.0.1", 0};
  util::Socket client = util::Socket::connect_to("127.0.0.1", listener.port());
  auto server = listener.accept(2000);
  ASSERT_TRUE(server.has_value());

  // Hand-crafted header claiming a 1 GiB payload.
  const std::uint32_t length = 1U << 30;
  unsigned char header[5];
  std::memcpy(header, &length, 4);
  header[4] = static_cast<unsigned char>(dist::MsgType::kHello);
  ASSERT_TRUE(client.send_all(header, sizeof header));
  EXPECT_THROW(dist::recv_frame(*server, 2000), std::runtime_error);
}

TEST(DistProtocol, MidFrameEofThrows) {
  util::Listener listener{"127.0.0.1", 0};
  util::Socket client = util::Socket::connect_to("127.0.0.1", listener.port());
  auto server = listener.accept(2000);
  ASSERT_TRUE(server.has_value());

  const std::uint32_t length = 64;  // promise 64 bytes, deliver none
  unsigned char header[5];
  std::memcpy(header, &length, 4);
  header[4] = static_cast<unsigned char>(dist::MsgType::kHello);
  ASSERT_TRUE(client.send_all(header, sizeof header));
  client.close();
  EXPECT_THROW(dist::recv_frame(*server, 2000), std::runtime_error);
}

// ---- coordinator/worker loopback ------------------------------------------

TEST(DistLoopback, MultiWorkerRunMatchesInProcessEngineByteForByte) {
  const campaign::CampaignSpec spec = loopback_spec();

  campaign::EngineOptions local;
  local.workers = 2;
  const campaign::CampaignResult reference =
      campaign::run_campaign(spec, local);

  dist::CoordinatorOptions copts;
  copts.host = "127.0.0.1";
  dist::Coordinator coordinator{spec, copts};
  const std::uint16_t port = coordinator.port();
  ASSERT_GT(port, 0);

  dist::CoordinatorResult result;
  std::thread serve_thread{[&] { result = coordinator.serve(); }};
  std::vector<dist::WorkerReport> reports{2};
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      try {
        dist::WorkerOptions wopts;
        wopts.host = "127.0.0.1";
        wopts.port = port;
        wopts.name = "w" + std::to_string(i);
        reports[static_cast<std::size_t>(i)] = dist::run_worker(wopts);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "worker " << i << " threw: " << e.what();
      }
    });
  }
  for (auto& t : workers) t.join();
  serve_thread.join();

  EXPECT_EQ(result.executed, reference.records.size());
  EXPECT_EQ(result.workers_seen, 2U);
  ASSERT_EQ(result.records.size(), reference.records.size());
  // Records identical bit-for-bit, in the same expansion order.
  EXPECT_EQ(records_bytes(result.records), records_bytes(reference.records));
  // And the analyst-facing artifact matches byte-for-byte too.
  std::ostringstream dist_csv, ref_csv;
  campaign::write_aggregate_csv(dist_csv,
                                campaign::summarize(result.records));
  campaign::write_aggregate_csv(ref_csv,
                                campaign::summarize(reference.records));
  EXPECT_EQ(dist_csv.str(), ref_csv.str());
  // Both workers shut down because the campaign completed.
  for (const auto& report : reports) {
    EXPECT_EQ(report.shutdown_reason, "campaign complete");
  }
  EXPECT_EQ(reports[0].results_accepted + reports[1].results_accepted,
            reference.records.size());
}

/// Raw protocol client that takes one job and abandons it.
dist::JobAssign take_job_and_vanish(std::uint16_t port) {
  util::Socket socket = util::Socket::connect_to("127.0.0.1", port);
  EXPECT_TRUE(dist::send_frame(socket, dist::MsgType::kHello,
                               dist::encode_hello({dist::kProtocolVersion,
                                                   "deserter"})));
  auto welcome = dist::recv_frame(socket, 5000);
  EXPECT_TRUE(welcome.has_value() &&
              welcome->type == dist::MsgType::kWelcome);
  EXPECT_TRUE(dist::send_frame(socket, dist::MsgType::kJobRequest, {}));
  auto frame = dist::recv_frame(socket, 5000);
  if (!frame.has_value() || frame->type != dist::MsgType::kJobAssign) {
    ADD_FAILURE() << "expected a JobAssign";
    return {};
  }
  return dist::decode_job_assign(frame->payload);
  // Socket closes here: the coordinator sees EOF and requeues.
}

TEST(DistLoopback, DisconnectedWorkersJobIsRequeuedAndFinishes) {
  campaign::CampaignSpec spec = loopback_spec();
  spec.grid.clear();
  spec.seeds_per_point = 2;  // 2 jobs total

  dist::CoordinatorOptions copts;
  copts.host = "127.0.0.1";
  dist::Coordinator coordinator{spec, copts};
  const std::uint16_t port = coordinator.port();

  dist::CoordinatorResult result;
  std::thread serve_thread{[&] { result = coordinator.serve(); }};

  // A client takes a job and dies without reporting.
  take_job_and_vanish(port);

  // A real worker then drains the whole campaign, including the
  // abandoned job.
  dist::WorkerOptions wopts;
  wopts.host = "127.0.0.1";
  wopts.port = port;
  wopts.name = "finisher";
  const dist::WorkerReport report = dist::run_worker(wopts);
  serve_thread.join();

  EXPECT_GE(result.requeued, 1U);
  EXPECT_EQ(result.executed, 2U);
  EXPECT_EQ(report.results_accepted, 2U);
  ASSERT_EQ(result.records.size(), 2U);
  for (const auto& record : result.records) {
    EXPECT_FALSE(record.hash.empty());
    EXPECT_FALSE(record.metrics.empty());
  }
}

TEST(DistLoopback, DuplicateResultsAreMergedAtMostOnce) {
  campaign::CampaignSpec spec = loopback_spec();
  spec.grid.clear();
  spec.seeds_per_point = 2;  // 2 jobs

  dist::CoordinatorOptions copts;
  copts.host = "127.0.0.1";
  dist::Coordinator coordinator{spec, copts};
  const std::uint16_t port = coordinator.port();

  dist::CoordinatorResult result;
  std::thread serve_thread{[&] { result = coordinator.serve(); }};

  // A raw client "runs" both jobs with fabricated records, sending the
  // first result twice.
  util::Socket socket = util::Socket::connect_to("127.0.0.1", port);
  ASSERT_TRUE(dist::send_frame(socket, dist::MsgType::kHello,
                               dist::encode_hello({dist::kProtocolVersion,
                                                   "dup"})));
  auto frame = dist::recv_frame(socket, 5000);
  ASSERT_TRUE(frame.has_value() && frame->type == dist::MsgType::kWelcome);

  for (int job = 0; job < 2; ++job) {
    ASSERT_TRUE(dist::send_frame(socket, dist::MsgType::kJobRequest, {}));
    frame = dist::recv_frame(socket, 5000);
    ASSERT_TRUE(frame.has_value() &&
                frame->type == dist::MsgType::kJobAssign);
    const dist::JobAssign assign = dist::decode_job_assign(frame->payload);

    dist::JobResultMsg msg;
    msg.job_index = assign.job_index;
    msg.record = make_record(assign.hash,
                             static_cast<std::size_t>(assign.point_index),
                             static_cast<std::size_t>(assign.seed_index));
    const int sends = job == 0 ? 2 : 1;
    for (int s = 0; s < sends; ++s) {
      ASSERT_TRUE(dist::send_frame(socket, dist::MsgType::kJobResult,
                                   dist::encode_job_result(msg)));
      frame = dist::recv_frame(socket, 5000);
      ASSERT_TRUE(frame.has_value() &&
                  frame->type == dist::MsgType::kResultAck);
      EXPECT_EQ(dist::decode_result_ack(frame->payload).accepted, s == 0);
    }
  }
  serve_thread.join();

  EXPECT_EQ(result.executed, 2U);
  EXPECT_EQ(result.duplicates, 1U);
  ASSERT_EQ(result.records.size(), 2U);
}

TEST(DistLoopback, MergedJobIsDiscardedFromPendingNotReassigned) {
  campaign::CampaignSpec spec = loopback_spec();
  spec.grid.clear();
  spec.seeds_per_point = 2;  // 2 jobs

  dist::CoordinatorOptions copts;
  copts.host = "127.0.0.1";
  dist::Coordinator coordinator{spec, copts};
  const std::uint16_t port = coordinator.port();

  dist::CoordinatorResult result;
  std::thread serve_thread{[&] { result = coordinator.serve(); }};

  // A deserter takes job A and vanishes: A is requeued to the front of the
  // pending queue.
  const dist::JobAssign abandoned = take_job_and_vanish(port);

  // A second client reports job A's result without holding an assignment
  // (the protocol allows it — e.g. a shard replay). The record matches the
  // job hash, so it merges while A's requeued entry still sits in pending.
  util::Socket socket = util::Socket::connect_to("127.0.0.1", port);
  ASSERT_TRUE(dist::send_frame(socket, dist::MsgType::kHello,
                               dist::encode_hello({dist::kProtocolVersion,
                                                   "late"})));
  auto frame = dist::recv_frame(socket, 5000);
  ASSERT_TRUE(frame.has_value() && frame->type == dist::MsgType::kWelcome);

  dist::JobResultMsg msg;
  msg.job_index = abandoned.job_index;
  msg.record = make_record(abandoned.hash,
                           static_cast<std::size_t>(abandoned.point_index),
                           static_cast<std::size_t>(abandoned.seed_index));
  ASSERT_TRUE(dist::send_frame(socket, dist::MsgType::kJobResult,
                               dist::encode_job_result(msg)));
  frame = dist::recv_frame(socket, 5000);
  ASSERT_TRUE(frame.has_value() && frame->type == dist::MsgType::kResultAck);
  EXPECT_TRUE(dist::decode_result_ack(frame->payload).accepted);

  // The stale pending entry for job A must be discarded on the next
  // request, not handed out for a full (wasted) re-run: the client gets
  // the other job.
  ASSERT_TRUE(dist::send_frame(socket, dist::MsgType::kJobRequest, {}));
  frame = dist::recv_frame(socket, 5000);
  ASSERT_TRUE(frame.has_value() && frame->type == dist::MsgType::kJobAssign);
  const dist::JobAssign next = dist::decode_job_assign(frame->payload);
  EXPECT_NE(next.job_index, abandoned.job_index);
  EXPECT_NE(next.hash, abandoned.hash);

  msg.job_index = next.job_index;
  msg.record = make_record(next.hash,
                           static_cast<std::size_t>(next.point_index),
                           static_cast<std::size_t>(next.seed_index));
  ASSERT_TRUE(dist::send_frame(socket, dist::MsgType::kJobResult,
                               dist::encode_job_result(msg)));
  frame = dist::recv_frame(socket, 5000);
  ASSERT_TRUE(frame.has_value() && frame->type == dist::MsgType::kResultAck);
  EXPECT_TRUE(dist::decode_result_ack(frame->payload).accepted);
  serve_thread.join();

  EXPECT_EQ(result.executed, 2U);
  EXPECT_EQ(result.duplicates, 0U);
  ASSERT_EQ(result.records.size(), 2U);
}

TEST(DistLoopback, RequeueBudgetAbortsDeterministicFailures) {
  campaign::CampaignSpec spec = loopback_spec();
  spec.grid.clear();
  spec.seeds_per_point = 1;  // 1 job

  dist::CoordinatorOptions copts;
  copts.host = "127.0.0.1";
  copts.max_requeues_per_job = 2;
  dist::Coordinator coordinator{spec, copts};
  const std::uint16_t port = coordinator.port();

  std::string error;
  std::thread serve_thread{[&] {
    try {
      coordinator.serve();
    } catch (const std::exception& e) {
      error = e.what();
    }
  }};
  // Three deserters burn through the 2-requeue budget.
  for (int i = 0; i < 3; ++i) take_job_and_vanish(port);
  serve_thread.join();
  EXPECT_NE(error.find("requeued more than"), std::string::npos) << error;
}

TEST(DistLoopback, CoordinatorResumesFromStoreWithoutServingWire) {
  const campaign::CampaignSpec spec = loopback_spec();
  const std::string store_dir = temp_dir("resume_store");

  // First: a local engine run fills the store completely.
  campaign::EngineOptions local;
  local.workers = 2;
  local.store_dir = store_dir;
  const campaign::CampaignResult reference =
      campaign::run_campaign(spec, local);

  // A coordinator over the same store finds nothing to serve: serve()
  // returns immediately with every record resumed, no workers needed.
  dist::CoordinatorOptions copts;
  copts.host = "127.0.0.1";
  copts.store_dir = store_dir;
  dist::Coordinator coordinator{spec, copts};
  const dist::CoordinatorResult result = coordinator.serve();
  EXPECT_EQ(result.resumed, reference.records.size());
  EXPECT_EQ(result.executed, 0U);
  EXPECT_EQ(records_bytes(result.records), records_bytes(reference.records));
}

TEST(DistLoopback, WorkerShardStoreReplaysFinishedJobs) {
  const campaign::CampaignSpec spec = loopback_spec();
  const std::string shard_dir = temp_dir("shard_replay");

  // Run the campaign once with a sharded worker.
  {
    dist::CoordinatorOptions copts;
    copts.host = "127.0.0.1";
    dist::Coordinator coordinator{spec, copts};
    const std::uint16_t port = coordinator.port();
    dist::CoordinatorResult result;
    std::thread serve_thread{[&] { result = coordinator.serve(); }};
    dist::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.shard_store_dir = shard_dir;
    const dist::WorkerReport first = dist::run_worker(wopts);
    serve_thread.join();
    EXPECT_EQ(first.jobs_run, result.records.size());
  }

  // Run it again with the same shard: the worker replays from disk and
  // executes nothing.
  {
    dist::CoordinatorOptions copts;
    copts.host = "127.0.0.1";
    dist::Coordinator coordinator{spec, copts};
    const std::uint16_t port = coordinator.port();
    dist::CoordinatorResult result;
    std::thread serve_thread{[&] { result = coordinator.serve(); }};
    dist::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.shard_store_dir = shard_dir;
    const dist::WorkerReport second = dist::run_worker(wopts);
    serve_thread.join();
    EXPECT_EQ(second.jobs_run, 0U);
    EXPECT_EQ(second.results_accepted, result.records.size());
    EXPECT_EQ(result.executed, result.records.size());
  }
}

}  // namespace
}  // namespace roadrunner
