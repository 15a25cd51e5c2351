#include "dist/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "dist/protocol.hpp"
#include "telemetry/telemetry.hpp"
#include "util/socket.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::dist {

namespace {

util::Socket connect_with_retries(const WorkerOptions& options) {
  const int attempts = options.connect_attempts > 0 ? options.connect_attempts
                                                    : 1;
  for (int attempt = 1;; ++attempt) {
    try {
      return util::Socket::connect_to(options.host, options.port);
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds{options.connect_retry_ms});
  }
}

/// Runs the job on a private one-thread pool while the calling (connection)
/// thread wakes every heartbeat_s to ping the coordinator, so a long
/// simulation never looks like a dead worker. Returns the record; rethrows
/// whatever the job threw.
campaign::JobRecord run_with_heartbeats(const campaign::Job& job,
                                        const std::string& ckpt_path,
                                        double checkpoint_every_s,
                                        double heartbeat_s,
                                        std::uint64_t job_index,
                                        util::ThreadPool& pool,
                                        util::Socket& socket) {
  util::Mutex mutex;
  std::condition_variable_any cv;
  bool done = false;
  campaign::JobRecord record;
  std::exception_ptr error;

  pool.submit([&] {
    // The notify stays under the lock in both paths: the connection thread
    // wakes on wait_for timeouts too, so a notify after unlock could race
    // it seeing done==true and returning — destroying cv and mutex on this
    // very stack frame — before notify_all touches them. Same
    // notify-after-unlock hazard ThreadPool::parallel_for fixed
    // (DESIGN.md §10).
    try {
      campaign::JobRecord result =
          campaign::run_job(job, ckpt_path, checkpoint_every_s);
      util::MutexLock lock{mutex};
      record = std::move(result);
      done = true;
      cv.notify_all();
    } catch (...) {
      util::MutexLock lock{mutex};
      error = std::current_exception();
      done = true;
      cv.notify_all();
    }
  });

  const auto beat = std::chrono::duration<double>{
      heartbeat_s > 0.0 ? heartbeat_s : 1.0};
  for (;;) {
    bool finished;
    {
      util::MutexLock lock{mutex};
      while (!done && cv.wait_for(mutex, beat) !=
                          std::cv_status::timeout) {
      }
      finished = done;
    }
    if (finished) break;
    // A failed heartbeat means the coordinator is gone; the job still runs
    // to completion so the shard store holds it, and a restarted worker on
    // the same shard directory replays it instead of recomputing it.
    send_frame(socket, MsgType::kHeartbeat,
               encode_heartbeat(Heartbeat{job_index}));
  }
  if (error) std::rethrow_exception(error);
  return record;
}

}  // namespace

WorkerReport run_worker(const WorkerOptions& options) {
  RR_TSPAN("dist", "dist.worker");
  WorkerReport report;

  util::Socket socket = connect_with_retries(options);
  Hello hello;
  hello.worker_name = options.name;
  if (!send_frame(socket, MsgType::kHello, encode_hello(hello))) {
    throw std::runtime_error{"dist worker: coordinator closed during hello"};
  }
  std::optional<Frame> frame = recv_frame(socket);
  if (!frame.has_value()) {
    throw std::runtime_error{"dist worker: coordinator closed during hello"};
  }
  if (frame->type == MsgType::kShutdown) {
    report.shutdown_reason = decode_shutdown(frame->payload).reason;
    return report;
  }
  if (frame->type != MsgType::kWelcome) {
    throw std::runtime_error{"dist worker: expected Welcome"};
  }
  const Welcome welcome = decode_welcome(frame->payload);
  if (welcome.version != kProtocolVersion) {
    throw std::runtime_error{"dist worker: protocol version mismatch"};
  }

  std::optional<campaign::ResultStore> shard;
  if (!options.shard_store_dir.empty()) shard.emplace(options.shard_store_dir);
  std::string ckpt_dir = options.checkpoint_dir;
  if (ckpt_dir.empty() && !options.shard_store_dir.empty()) {
    ckpt_dir = (std::filesystem::path{options.shard_store_dir} /
                "checkpoints").string();
  }
  const bool checkpointing = welcome.checkpoint_every_s > 0.0 &&
                             !ckpt_dir.empty();
  if (checkpointing) std::filesystem::create_directories(ckpt_dir);

  util::ThreadPool pool{1};

  for (;;) {
    if (options.max_jobs > 0 && report.jobs_run >= options.max_jobs) {
      report.shutdown_reason = "max-jobs reached";
      break;  // elastic leave: just close; nothing of ours is in flight
    }
    // Drain anything already queued (a Shutdown raced our next request).
    if (socket.wait_readable(0)) {
      frame = recv_frame(socket);
      if (!frame.has_value()) {
        report.shutdown_reason = "connection lost";
        break;
      }
      if (frame->type == MsgType::kShutdown) {
        report.shutdown_reason = decode_shutdown(frame->payload).reason;
        break;
      }
    }
    if (!send_frame(socket, MsgType::kJobRequest, {})) {
      report.shutdown_reason = "connection lost";
      break;
    }
    frame = recv_frame(socket);
    if (!frame.has_value()) {
      report.shutdown_reason = "connection lost";
      break;
    }
    if (frame->type == MsgType::kShutdown) {
      report.shutdown_reason = decode_shutdown(frame->payload).reason;
      break;
    }
    if (frame->type == MsgType::kNoWork) {
      const NoWork wait = decode_no_work(frame->payload);
      // Sleep on the socket itself: a Shutdown or a freed-up job wakes us
      // immediately instead of after the full backoff.
      static_cast<void>(socket.wait_readable(static_cast<int>(wait.retry_ms)));
      continue;
    }
    if (frame->type != MsgType::kJobAssign) {
      throw std::runtime_error{"dist worker: unexpected message type " +
                               std::to_string(static_cast<int>(frame->type))};
    }

    const JobAssign assign = decode_job_assign(frame->payload);
    if (options.hold_before_job_s > 0.0) {
      // Fault-injection window: the job is assigned but not yet running,
      // so a SIGKILL here deterministically exercises the requeue path.
      // The coordinator's lease (not heartbeats) covers this gap; holds
      // must stay well under lease_s.
      std::this_thread::sleep_for(
          std::chrono::duration<double>{options.hold_before_job_s});
    }
    campaign::JobRecord record;
    if (shard.has_value() && shard->contains(assign.hash)) {
      // This worker already ran the job in a previous life; replay it.
      record = shard->load(assign.hash);
    } else {
      campaign::Job job;
      job.point_index = static_cast<std::size_t>(assign.point_index);
      job.seed_index = static_cast<std::size_t>(assign.seed_index);
      job.seed = assign.seed;
      job.point_label = assign.point_label;
      job.experiment = util::IniFile::parse(assign.experiment_text);
      job.hash = assign.hash;
      const std::string ckpt_path =
          checkpointing ? (std::filesystem::path{ckpt_dir} /
                           (assign.hash + ".rrck")).string()
                        : std::string{};
      telemetry::Span span{"dist", "dist.worker_job"};
      if (span.active()) span.set_args("hash=" + assign.hash);
      try {
        record = run_with_heartbeats(job, ckpt_path,
                                     welcome.checkpoint_every_s,
                                     options.heartbeat_s, assign.job_index,
                                     pool, socket);
      } catch (...) {
        // Tear the connection down first so the coordinator requeues the
        // job for another worker, then surface the local failure.
        socket.close();
        throw;
      }
      ++report.jobs_run;
      if (shard.has_value()) shard->save(record);
      if (!ckpt_path.empty()) {
        std::error_code ec;
        std::filesystem::remove(ckpt_path, ec);  // snapshot now redundant
      }
    }

    JobResultMsg result;
    result.job_index = assign.job_index;
    result.record = record;
    if (!send_frame(socket, MsgType::kJobResult, encode_job_result(result))) {
      report.shutdown_reason = "connection lost";
      break;
    }
    frame = recv_frame(socket);
    if (!frame.has_value()) {
      report.shutdown_reason = "connection lost";
      break;
    }
    if (frame->type == MsgType::kShutdown) {
      report.shutdown_reason = decode_shutdown(frame->payload).reason;
      break;
    }
    if (frame->type != MsgType::kResultAck) {
      throw std::runtime_error{"dist worker: expected ResultAck"};
    }
    if (decode_result_ack(frame->payload).accepted) {
      ++report.results_accepted;
    } else {
      ++report.results_duplicate;
    }
  }
  return report;
}

}  // namespace roadrunner::dist
