#include "traffic/traffic_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "mobility/ignition.hpp"
#include "mobility/trace.hpp"
#include "util/rng.hpp"

namespace roadrunner::traffic {

namespace {

using mobility::OnInterval;
using mobility::Position;
using mobility::TraceSample;

struct Grid {
  int gx = 0;
  int gy = 0;
  [[nodiscard]] bool operator==(const Grid& o) const {
    return gx == o.gx && gy == o.gy;
  }
  [[nodiscard]] bool operator!=(const Grid& o) const { return !(*this == o); }
};

/// Approach axis of a grid move: a vehicle whose gy changes travels the
/// north-south street. Index into SignalState::queues.
constexpr std::size_t kEwAxis = 0;
constexpr std::size_t kNsAxis = 1;

// ---- generation-time event queue -----------------------------------------
// The joint pass shares one (time, seq) min-heap across all vehicles and
// signals, exactly like the Simulator's BasicEventQueue: equal times break
// ties by scheduling order, so generation is a deterministic function of
// (seed, plan) — no wall clock, no container-order dependence.

enum class GenKind : std::uint8_t {
  kArrive = 0,    ///< vehicle reaches the end of its current block segment
  kDepart = 1,    ///< queue head (expected vehicle) may cross on green
  kPhase = 2,     ///< fixed-time phase switch
  kDecision = 3,  ///< actuated controller decision point
  kResume = 4,    ///< dwell ends, next trip begins
};

struct GenEvent {
  double at = 0.0;
  std::uint64_t seq = 0;
  GenKind kind = GenKind::kArrive;
  std::uint32_t vehicle = 0;   // kArrive / kResume
  std::uint32_t signal = 0;    // kDepart / kPhase / kDecision
  std::uint8_t axis = 0;       // kDepart
  std::uint32_t expected = 0;  // kDepart: head vehicle this event drains
  std::uint64_t epoch = 0;     // kDecision: phase epoch it belongs to
};

struct LaterEvent {
  bool operator()(const GenEvent& a, const GenEvent& b) const {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  }
};

struct QueuedVehicle {
  std::uint32_t vehicle = 0;
  double arrive_s = 0.0;
  double stop_dist_m = 0.0;  ///< distance short of the intersection centre
  Position stop_pos{};
};

struct SignalState {
  SignalSpec spec;
  Position center{};
  bool ns_green = true;
  double phase_start = 0.0;
  std::uint64_t epoch = 0;
  std::vector<QueuedVehicle> queues[2];  // kEwAxis / kNsAxis, FIFO
};

/// Per-vehicle driver. The RNG draw order is exactly
/// mobility::make_city_vehicle's — queue delays shift times, never draws —
/// so a vehicle that never stops at a signal keeps a bit-identical track
/// and enabling traffic cannot perturb any other vehicle's stream.
struct Driver {
  util::Rng rng{1};
  Grid here{};
  Grid dest{};
  Grid next{};          ///< pending segment target (valid while driving)
  bool ns_move = false; ///< pending segment runs along the NS street
  double trip_start = 0.0;
  bool in_trip = false;
  std::vector<TraceSample> samples;
  std::vector<OnInterval> on;
};

class Generator {
 public:
  Generator(std::size_t vehicle_count, const mobility::CityModelConfig& config,
            const TrafficPlan& plan)
      : config_{config}, plan_{plan}, drivers_(vehicle_count) {
    if (config.block_size_m <= 0 ||
        config.city_size_m < config.block_size_m) {
      throw std::invalid_argument{"make_traffic_fleet: bad city geometry"};
    }
    if (config.min_trip_blocks < 1 ||
        config.max_trip_blocks < config.min_trip_blocks) {
      throw std::invalid_argument{
          "make_traffic_fleet: bad trip length range"};
    }
    grid_n_ = static_cast<int>(config.city_size_m / config.block_size_m) + 1;
    const int max_span = 2 * (grid_n_ - 1);
    if (max_span < 1) {
      throw std::invalid_argument{
          "make_traffic_fleet: city smaller than one block"};
    }
    max_trip_ = std::min(config.max_trip_blocks, max_span);
    min_trip_ = std::min(config.min_trip_blocks, max_trip_);

    if (plan.signals_active()) {
      for (std::size_t i = 0; i < plan.signals.size(); ++i) {
        const SignalSpec& spec = plan.signals[i];
        if (spec.gx >= grid_n_ || spec.gy >= grid_n_) {
          throw std::invalid_argument{
              "make_traffic_fleet: [traffic." + std::to_string(i) +
              "] intersection (" + std::to_string(spec.gx) + ", " +
              std::to_string(spec.gy) + ") is off the " +
              std::to_string(grid_n_) + "x" + std::to_string(grid_n_) +
              " city grid"};
        }
        SignalState state;
        state.spec = spec;
        state.center = to_position(Grid{spec.gx, spec.gy});
        signals_.push_back(state);
        signal_at_[{spec.gx, spec.gy}] = static_cast<std::uint32_t>(i);
      }
    }
    timeline_.signal_count = static_cast<std::uint32_t>(signals_.size());
  }

  /// Runs the joint pass for `simulate` (independents + platoon leaders;
  /// followers are derived afterwards as shifted replays).
  void run(const std::vector<bool>& is_follower) {
    util::Rng master{config_.seed};
    for (std::size_t v = 0; v < drivers_.size(); ++v) {
      if (is_follower[v]) continue;
      drivers_[v].rng = master.fork("vehicle-" + std::to_string(v));
      start_vehicle(static_cast<std::uint32_t>(v));
    }
    for (std::size_t i = 0; i < signals_.size(); ++i) {
      init_signal(static_cast<std::uint32_t>(i));
    }
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), LaterEvent{});
      const GenEvent ev = heap_.back();
      heap_.pop_back();
      dispatch(ev);
    }
    // Vehicles still queued when the signal chains end (at the duration
    // horizon) stay parked at their stop position; close their trip.
    for (SignalState& sig : signals_) {
      for (auto& queue : sig.queues) {
        for (const QueuedVehicle& qv : queue) {
          Driver& d = drivers_[qv.vehicle];
          if (d.in_trip) d.on.push_back({d.trip_start, config_.duration_s});
          d.in_trip = false;
        }
        queue.clear();
      }
    }
  }

  [[nodiscard]] Driver& driver(std::size_t v) { return drivers_[v]; }
  [[nodiscard]] TrafficTimeline& timeline() { return timeline_; }

  /// Clamps on-intervals to the duration and drops empties (same epilogue
  /// as make_city_vehicle), then builds the track.
  [[nodiscard]] mobility::VehicleTrack finish_track(std::size_t v) const {
    const Driver& d = drivers_[v];
    mobility::VehicleTrack track;
    track.trace = mobility::Trace{d.samples};
    std::vector<OnInterval> clamped;
    for (OnInterval iv : d.on) {
      iv.end_s = std::min(iv.end_s, config_.duration_s);
      if (iv.end_s > iv.start_s) clamped.push_back(iv);
    }
    track.ignition = mobility::IgnitionSchedule{std::move(clamped)};
    return track;
  }

 private:
  [[nodiscard]] Position to_position(const Grid& g) const {
    return Position{g.gx * config_.block_size_m, g.gy * config_.block_size_m};
  }

  void schedule(double at, GenEvent ev) {
    ev.at = at;
    ev.seq = next_seq_++;
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), LaterEvent{});
  }

  void dispatch(const GenEvent& ev) {
    switch (ev.kind) {
      case GenKind::kArrive: on_arrive(ev.vehicle, ev.at); break;
      case GenKind::kDepart:
        on_depart(ev.signal, ev.axis, ev.expected, ev.at);
        break;
      case GenKind::kPhase: switch_phase(ev.signal, ev.at); break;
      case GenKind::kDecision: on_decision(ev.signal, ev.epoch, ev.at); break;
      case GenKind::kResume: on_resume(ev.vehicle, ev.at); break;
    }
  }

  // ---- vehicle itinerary (draw order == make_city_vehicle) ---------------

  Grid random_intersection(util::Rng& rng) const {
    return Grid{
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(grid_n_))),
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(grid_n_))),
    };
  }

  Grid random_destination(util::Rng& rng, const Grid& from) const {
    for (;;) {
      const int len = static_cast<int>(rng.uniform_int(min_trip_, max_trip_));
      const int dx = static_cast<int>(rng.uniform_int(-len, len));
      const int dy = (len - std::abs(dx)) * (rng.bernoulli(0.5) ? 1 : -1);
      const Grid to{from.gx + dx, from.gy + dy};
      if (to.gx >= 0 && to.gx < grid_n_ && to.gy >= 0 && to.gy < grid_n_ &&
          to != from) {
        return to;
      }
    }
  }

  void start_vehicle(std::uint32_t v) {
    Driver& d = drivers_[v];
    d.here = random_intersection(d.rng);
    d.samples.push_back({0.0, to_position(d.here)});
    const bool driving = d.rng.bernoulli(config_.initial_on_probability);
    if (driving) {
      begin_trip(v, 0.0);
      return;
    }
    const double dwell =
        std::max(1e-3, d.rng.exponential(1.0 / config_.dwell_mean_s));
    const bool stays_on = d.rng.bernoulli(config_.dwell_on_probability);
    if (stays_on) d.on.push_back({0.0, dwell});
    GenEvent ev;
    ev.kind = GenKind::kResume;
    ev.vehicle = v;
    schedule(dwell, ev);
  }

  void on_resume(std::uint32_t v, double t) {
    Driver& d = drivers_[v];
    if (t >= config_.duration_s) return;
    d.samples.push_back({t, to_position(d.here)});
    begin_trip(v, t);
  }

  void begin_trip(std::uint32_t v, double t) {
    Driver& d = drivers_[v];
    d.trip_start = t;
    d.in_trip = true;
    d.dest = random_destination(d.rng, d.here);
    start_segment(v, t);
  }

  void start_segment(std::uint32_t v, double t) {
    Driver& d = drivers_[v];
    // Randomly interleave x and y moves for a staircase path.
    const bool move_x = d.here.gy == d.dest.gy ||
                        (d.here.gx != d.dest.gx && d.rng.bernoulli(0.5));
    Grid next = d.here;
    if (move_x) {
      next.gx += d.dest.gx > d.here.gx ? 1 : -1;
    } else {
      next.gy += d.dest.gy > d.here.gy ? 1 : -1;
    }
    const double speed = std::clamp(
        d.rng.normal(config_.speed_mean_mps, config_.speed_stddev_mps),
        0.25 * config_.speed_mean_mps, 2.0 * config_.speed_mean_mps);
    d.next = next;
    d.ns_move = !move_x;
    GenEvent ev;
    ev.kind = GenKind::kArrive;
    ev.vehicle = v;
    schedule(t + config_.block_size_m / speed, ev);
  }

  void on_arrive(std::uint32_t v, double t) {
    Driver& d = drivers_[v];
    // Signals only shape traffic within the horizon; a segment that crosses
    // the duration finishes free-flow (as make_city_vehicle's does).
    if (t < config_.duration_s) {
      const auto it = signal_at_.find({d.next.gx, d.next.gy});
      if (it != signal_at_.end()) {
        SignalState& sig = signals_[it->second];
        const std::size_t axis = d.ns_move ? kNsAxis : kEwAxis;
        const bool green = (axis == kNsAxis) == sig.ns_green;
        if (!green || !sig.queues[axis].empty()) {
          join_queue(v, it->second, axis, t);
          return;
        }
      }
    }
    d.samples.push_back({t, to_position(d.next)});
    d.here = d.next;
    continue_route(v, t);
  }

  void join_queue(std::uint32_t v, std::uint32_t signal, std::size_t axis,
                  double t) {
    Driver& d = drivers_[v];
    SignalState& sig = signals_[signal];
    const auto index = sig.queues[axis].size();
    // Head stops spacing_m short of the centre, each follower one slot
    // further back; clamped inside the approach block so the trace sample
    // stays on the street segment just driven.
    const double stop_dist =
        std::min(plan_.spacing_m * static_cast<double>(index + 1),
                 config_.block_size_m - 1.0);
    const Position target = to_position(d.next);
    const Position from = to_position(d.here);
    const double dir_x = (target.x - from.x) / config_.block_size_m;
    const double dir_y = (target.y - from.y) / config_.block_size_m;
    QueuedVehicle qv;
    qv.vehicle = v;
    qv.arrive_s = t;
    qv.stop_dist_m = stop_dist;
    qv.stop_pos = Position{target.x - dir_x * stop_dist,
                           target.y - dir_y * stop_dist};
    d.samples.push_back({t, qv.stop_pos});
    sig.queues[axis].push_back(qv);
    timeline_.max_queue_len =
        std::max(timeline_.max_queue_len,
                 static_cast<std::uint32_t>(sig.queues[axis].size()));
  }

  void continue_route(std::uint32_t v, double t) {
    Driver& d = drivers_[v];
    if (d.here != d.dest && t < config_.duration_s) {
      start_segment(v, t);
      return;
    }
    // Trip ends: at the destination, or the horizon crossed mid-trip.
    d.on.push_back({d.trip_start, t});
    d.in_trip = false;
    if (t >= config_.duration_s) return;
    const double dwell =
        std::max(1e-3, d.rng.exponential(1.0 / config_.dwell_mean_s));
    const double dwell_end = t + dwell;
    if (d.rng.bernoulli(config_.dwell_on_probability)) {
      // Merge with the trip interval just pushed (still on).
      d.on.back().end_s = dwell_end;
    }
    GenEvent ev;
    ev.kind = GenKind::kResume;
    ev.vehicle = v;
    schedule(dwell_end, ev);
  }

  // ---- signal machinery ---------------------------------------------------

  void init_signal(std::uint32_t i) {
    SignalState& sig = signals_[i];
    sig.ns_green = true;
    sig.phase_start = 0.0;
    // Record the initial phase so the runtime starts from the same state and
    // the traffic_queue_len series has a t=0 anchor.
    record_phase(i, 0.0);
    const SignalSpec& spec = sig.spec;
    if (spec.controller == ControllerKind::kFixedTime) {
      const double first = spec.offset_s + spec.green_ns_s;
      if (first <= config_.duration_s) {
        GenEvent ev;
        ev.kind = GenKind::kPhase;
        ev.signal = i;
        schedule(first, ev);
      }
    } else {
      const double first = spec.offset_s + spec.min_green_s;
      if (first <= config_.duration_s) {
        GenEvent ev;
        ev.kind = GenKind::kDecision;
        ev.signal = i;
        ev.epoch = sig.epoch;
        schedule(first, ev);
      }
    }
  }

  void record_phase(std::uint32_t i, double t) {
    const SignalState& sig = signals_[i];
    PhaseChange pc;
    pc.time_s = t;
    pc.signal = i;
    pc.ns_green = sig.ns_green;
    pc.ns_queue = static_cast<std::uint32_t>(sig.queues[kNsAxis].size());
    pc.ew_queue = static_cast<std::uint32_t>(sig.queues[kEwAxis].size());
    timeline_.phases.push_back(pc);
  }

  void switch_phase(std::uint32_t i, double t) {
    SignalState& sig = signals_[i];
    sig.ns_green = !sig.ns_green;
    sig.phase_start = t;
    ++sig.epoch;
    record_phase(i, t);
    const std::size_t green_axis = sig.ns_green ? kNsAxis : kEwAxis;
    if (!sig.queues[green_axis].empty()) {
      GenEvent dep;
      dep.kind = GenKind::kDepart;
      dep.signal = i;
      dep.axis = static_cast<std::uint8_t>(green_axis);
      dep.expected = sig.queues[green_axis].front().vehicle;
      schedule(t + plan_.startup_s, dep);
    }
    const SignalSpec& spec = sig.spec;
    if (spec.controller == ControllerKind::kFixedTime) {
      const double next =
          t + (sig.ns_green ? spec.green_ns_s : spec.green_ew_s);
      if (next <= config_.duration_s) {
        GenEvent ev;
        ev.kind = GenKind::kPhase;
        ev.signal = i;
        schedule(next, ev);
      }
    } else {
      const double next = t + spec.min_green_s;
      if (next <= config_.duration_s) {
        GenEvent ev;
        ev.kind = GenKind::kDecision;
        ev.signal = i;
        ev.epoch = sig.epoch;
        schedule(next, ev);
      }
    }
  }

  void on_decision(std::uint32_t i, std::uint64_t epoch, double t) {
    SignalState& sig = signals_[i];
    if (epoch != sig.epoch) return;  // stale: the phase already switched
    const SignalSpec& spec = sig.spec;
    const std::size_t green_axis = sig.ns_green ? kNsAxis : kEwAxis;
    const double elapsed = t - sig.phase_start;
    // Queue-actuated rule: extend while the green approach is still
    // draining and the extension fits under max_green; otherwise switch.
    if (!sig.queues[green_axis].empty() &&
        elapsed + spec.extend_s <= spec.max_green_s) {
      const double next = t + spec.extend_s;
      if (next <= config_.duration_s) {
        GenEvent ev;
        ev.kind = GenKind::kDecision;
        ev.signal = i;
        ev.epoch = sig.epoch;
        schedule(next, ev);
      }
      return;
    }
    switch_phase(i, t);
  }

  void on_depart(std::uint32_t i, std::uint8_t axis, std::uint32_t expected,
                 double t) {
    SignalState& sig = signals_[i];
    const bool green = (axis == kNsAxis) == sig.ns_green;
    if (!green) return;  // stale: red again; green will reschedule the head
    auto& queue = sig.queues[axis];
    if (queue.empty() || queue.front().vehicle != expected) return;
    const QueuedVehicle qv = queue.front();
    queue.erase(queue.begin());
    Driver& d = drivers_[qv.vehicle];
    // Close the stationary window, then clear the stop distance at the
    // nominal city speed (a fixed crawl — no extra RNG draw).
    d.samples.push_back({t, qv.stop_pos});
    StopRecord stop;
    stop.arrive_s = qv.arrive_s;
    stop.depart_s = t;
    stop.signal = i;
    stop.vehicle = qv.vehicle;
    stop.ns_axis = axis == kNsAxis;
    timeline_.stops.push_back(stop);
    ++timeline_.total_stops;
    timeline_.total_stop_time_s += t - qv.arrive_s;
    if (!queue.empty()) {
      GenEvent dep;
      dep.kind = GenKind::kDepart;
      dep.signal = i;
      dep.axis = axis;
      dep.expected = queue.front().vehicle;
      schedule(t + plan_.headway_s, dep);
    }
    const double cross = t + qv.stop_dist_m / config_.speed_mean_mps;
    d.samples.push_back({cross, to_position(d.next)});
    d.here = d.next;
    continue_route(qv.vehicle, cross);
  }

  const mobility::CityModelConfig& config_;
  const TrafficPlan& plan_;
  int grid_n_ = 0;
  int min_trip_ = 1;
  int max_trip_ = 1;
  std::vector<Driver> drivers_;
  std::vector<SignalState> signals_;
  std::map<std::pair<int, int>, std::uint32_t> signal_at_;
  std::vector<GenEvent> heap_;
  std::uint64_t next_seq_ = 0;
  TrafficTimeline timeline_;
};

// ---- platoon derivation ---------------------------------------------------

/// Activity window of one platoon member: appears at `appear` (0 for
/// formation members, the join time for a reserved joiner) and detaches at
/// `detach` (infinity while it stays in the convoy).
struct MemberWindow {
  double appear = 0.0;
  double detach = std::numeric_limits<double>::infinity();
};

/// Builds follower k's track as the leader's trajectory delayed by
/// `shift` (constant time gap, the CACC abstraction): pos(t) =
/// leader_pos(t - shift), clamped to the leader's start before the convoy
/// stretches out. Outside [appear, detach) the member is parked at the
/// boundary position with ignition off.
mobility::VehicleTrack follower_track(const mobility::VehicleTrack& leader,
                                      double shift, const MemberWindow& win,
                                      double duration_s) {
  const auto& lead_samples = leader.trace.samples();
  std::vector<TraceSample> samples;
  if (win.appear <= 0.0) {
    samples.push_back({0.0, lead_samples.front().position});
  } else {
    // Reserved joiner: parked on the route point where the convoy tail
    // passes at the join instant, merging as the platoon sweeps by.
    const Position merge = leader.trace.position_at(win.appear - shift);
    samples.push_back({0.0, merge});
    samples.push_back({win.appear, merge});
  }
  for (const TraceSample& s : lead_samples) {
    const double t = s.time_s + shift;
    if (t <= samples.back().time_s + 1e-9) continue;
    if (t >= win.detach - 1e-9) break;
    samples.push_back({t, s.position});
  }
  if (std::isfinite(win.detach) &&
      win.detach > samples.back().time_s + 1e-9) {
    // Detached members park where they left the convoy.
    samples.push_back(
        {win.detach, leader.trace.position_at(win.detach - shift)});
  }
  std::vector<OnInterval> on;
  for (const OnInterval& iv : leader.ignition.intervals()) {
    const double start = std::max(iv.start_s + shift, win.appear);
    const double end =
        std::min({iv.end_s + shift, win.detach, duration_s});
    if (end > start) on.push_back({start, end});
  }
  mobility::VehicleTrack track;
  track.trace = mobility::Trace{std::move(samples)};
  track.ignition = mobility::IgnitionSchedule{std::move(on)};
  return track;
}

}  // namespace

TrafficFleet make_traffic_fleet(std::size_t vehicle_count,
                                const mobility::CityModelConfig& config,
                                const TrafficPlan& plan) {
  TrafficFleet out;
  out.timeline.configured = plan.configured();
  if (!plan.active()) {
    out.fleet = mobility::make_city_fleet(vehicle_count, config);
    return out;
  }

  const bool platooned = plan.platoons_active();
  const std::size_t psize = platooned ? plan.platoons.size : 0;
  const std::size_t pcount = platooned ? plan.platoons.count : 0;
  const std::size_t platoon_vehicles = pcount * psize;
  if (platoon_vehicles > vehicle_count) {
    throw std::invalid_argument{
        "make_traffic_fleet: [platoon] needs " +
        std::to_string(platoon_vehicles) + " vehicles (count * size) but "
        "the scenario has " + std::to_string(vehicle_count)};
  }
  const std::size_t base = vehicle_count - platoon_vehicles;

  std::vector<bool> is_follower(vehicle_count, false);
  for (std::size_t p = 0; p < pcount; ++p) {
    for (std::size_t k = 1; k < psize; ++k) {
      is_follower[base + p * psize + k] = true;
    }
  }

  Generator gen{vehicle_count, config, plan};
  gen.run(is_follower);

  std::vector<mobility::VehicleTrack> tracks(vehicle_count);
  for (std::size_t v = 0; v < vehicle_count; ++v) {
    if (!is_follower[v]) tracks[v] = gen.finish_track(v);
  }

  TrafficTimeline& timeline = gen.timeline();
  timeline.configured = plan.configured();
  timeline.platoon_count = static_cast<std::uint32_t>(pcount);

  // Maneuvers draw from the master seed's "platoon" fork, one child stream
  // per platoon, with a fixed unconditional draw sequence — adding or
  // removing a platoon never perturbs the others.
  const util::Rng platoon_master =
      util::Rng{config.seed}.fork("platoon");
  for (std::size_t p = 0; p < pcount; ++p) {
    util::Rng rng = platoon_master.fork("p-" + std::to_string(p));
    const bool joins = rng.bernoulli(plan.platoons.join_probability);
    const double t_join = config.duration_s * rng.uniform(0.25, 0.50);
    const bool leaves = rng.bernoulli(plan.platoons.leave_probability);
    const double t_leave = config.duration_s * rng.uniform(0.55, 0.85);
    const bool splits = rng.bernoulli(plan.platoons.split_probability);
    const double t_split = config.duration_s * rng.uniform(0.60, 0.95);

    const std::size_t leader = base + p * psize;
    std::vector<MemberWindow> windows(psize);  // [0] = leader, unused
    // Formation: leader + every follower except a reserved joiner.
    std::vector<std::size_t> active;  // member offsets, front to back
    for (std::size_t k = 0; k < psize; ++k) active.push_back(k);
    if (joins) {
      active.pop_back();
      windows[psize - 1].appear = t_join;
    }
    Maneuver formation;
    formation.time_s = 0.0;
    formation.platoon = static_cast<std::uint32_t>(p);
    formation.kind = ManeuverKind::kFormation;
    formation.vehicle = static_cast<std::uint32_t>(leader);
    formation.size_after = static_cast<std::uint32_t>(active.size());
    timeline.maneuvers.push_back(formation);

    struct Pending {
      double time;
      ManeuverKind kind;
    };
    std::vector<Pending> pending;
    if (joins) pending.push_back({t_join, ManeuverKind::kJoin});
    if (leaves) pending.push_back({t_leave, ManeuverKind::kLeave});
    if (splits) pending.push_back({t_split, ManeuverKind::kSplit});
    std::sort(pending.begin(), pending.end(),
              [](const Pending& a, const Pending& b) {
                return a.time < b.time ||
                       (a.time == b.time && a.kind < b.kind);
              });
    for (const Pending& ev : pending) {
      Maneuver m;
      m.time_s = ev.time;
      m.platoon = static_cast<std::uint32_t>(p);
      m.kind = ev.kind;
      if (ev.kind == ManeuverKind::kJoin) {
        active.push_back(psize - 1);
        m.vehicle = static_cast<std::uint32_t>(leader + psize - 1);
      } else if (ev.kind == ManeuverKind::kLeave) {
        if (active.size() < 2) continue;  // leader alone: nothing to leave
        const std::size_t off = active.back();
        active.pop_back();
        windows[off].detach = std::min(windows[off].detach, ev.time);
        m.vehicle = static_cast<std::uint32_t>(leader + off);
      } else {  // kSplit: the rear half detaches and disbands
        if (active.size() < 2) continue;
        const std::size_t detach_n = active.size() / 2;
        m.vehicle = static_cast<std::uint32_t>(
            leader + active[active.size() - detach_n]);
        for (std::size_t r = 0; r < detach_n; ++r) {
          const std::size_t off = active.back();
          active.pop_back();
          windows[off].detach = std::min(windows[off].detach, ev.time);
        }
      }
      m.size_after = static_cast<std::uint32_t>(active.size());
      timeline.maneuvers.push_back(m);
    }

    const mobility::VehicleTrack& lead_track = tracks[leader];
    for (std::size_t k = 1; k < psize; ++k) {
      const double shift = static_cast<double>(k) * plan.platoons.headway_s;
      tracks[leader + k] = follower_track(lead_track, shift, windows[k],
                                          config.duration_s);
    }
  }

  std::sort(timeline.maneuvers.begin(), timeline.maneuvers.end(),
            [](const Maneuver& a, const Maneuver& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              if (a.platoon != b.platoon) return a.platoon < b.platoon;
              return a.kind < b.kind;
            });

  out.fleet = mobility::FleetModel{std::move(tracks)};
  out.timeline = std::move(timeline);
  return out;
}

}  // namespace roadrunner::traffic
