#include "dist/coordinator.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "dist/shard.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "io/wire.hpp"
#include "net/reactor.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf::dist {

namespace {

constexpr std::uint64_t kNoUnit = ~std::uint64_t{0};
/// Duplicate-issue cap per unit: one original plus at most one stolen
/// copy keeps tail latency bounded without flooding laggards.
constexpr int kMaxLiveCopies = 2;
/// All units ride one worker-side session.
constexpr const char* kSession = "sweep";

std::string open_request(const System& base, const TwcaOptions& options) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("type");
  w.value("open_session");
  w.key("session");
  w.value(kSession);
  w.key("system");
  w.value(io::serialize_system(base));
  w.key("options");
  io::write_twca_options(w, options);
  w.end_object();
  return os.str();
}

std::string evaluate_request(const WorkUnit& unit, Count k) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  // id = unit id: evaluate *error* envelopes echo only the id, so this
  // is what keeps even failures attributable to their unit.
  w.key("id");
  w.value(static_cast<long long>(unit.id));
  w.key("type");
  w.value("evaluate");
  w.key("session");
  w.value(kSession);
  w.key("unit");
  w.value(static_cast<long long>(unit.id));
  w.key("k");
  w.value(static_cast<long long>(k));
  w.key("candidates");
  w.begin_array();
  for (const std::vector<Priority>& candidate : unit.candidates) {
    w.begin_array();
    for (const Priority p : candidate) w.value(static_cast<long long>(p));
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::vector<search::Objective> parse_objectives(const io::JsonValue& doc) {
  std::vector<search::Objective> out;
  for (const io::JsonValue& o : doc.at("objectives").items()) {
    search::Objective obj;
    obj.chains_missing = static_cast<Count>(o.at("chains_missing").as_int());
    obj.total_dmm = static_cast<Count>(o.at("total_dmm").as_int());
    obj.total_wcl = static_cast<Time>(o.at("total_wcl").as_int());
    out.push_back(obj);
  }
  return out;
}

/// The whole sweep as one object: single-threaded, every method runs on
/// the reactor loop thread (run() *is* the loop thread), so there is no
/// locking anywhere — the concurrency lives in the worker processes.
class Coordinator {
 public:
  Coordinator(const System& base, const TwcaOptions& options,
              const std::vector<std::vector<Priority>>& candidates,
              const std::vector<WorkerSpec>& specs, const SweepOptions& sweep)
      : base_(base),
        candidates_(candidates),
        specs_(specs),
        sweep_(sweep),
        open_request_(open_request(base, options)) {
    if (sweep_.window < 1) sweep_.window = 1;
  }

  Expected<SweepOutcome> run() {
    WHARF_EXPECT(!candidates_.empty(), "cannot sweep an empty candidate list");
    WHARF_EXPECT(!specs_.empty(), "need at least one worker");
    plan();
    workers_.resize(specs_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      workers_[w].restarts_left = sweep_.max_restarts;
      (void)start_worker(w);
    }
    if (live_workers_ == 0) {
      // Nothing failed inside wharf: the peers are unreachable or could
      // not be spawned, which the first failure names.
      final_status_ =
          Status::not_found(util::cat("no worker could be started: ", first_start_failure_));
    } else {
      reactor_.run();
    }
    retire_all();
    if (!final_status_.is_ok()) return final_status_;
    return assemble();
  }

 private:
  struct Issue {
    net::Reactor::TimerId timer = 0;  ///< 0 = no deadline armed
    bool expired = false;             ///< deadline fired; copy no longer counted live
  };

  struct Worker {
    std::unique_ptr<WorkerLink> link;  ///< null while dead
    bool ready = false;                ///< open_session acknowledged
    bool disqualified = false;         ///< sent an error envelope; never reused
    int restarts_left = 0;
    std::map<std::uint64_t, Issue> outstanding;  ///< unit id -> issue bookkeeping
  };

  struct Unit {
    WorkUnit work;
    bool completed = false;
    bool queued = false;  ///< sitting in pending_
    int live_copies = 0;  ///< unexpired issues (meaningful only while !completed)
    std::vector<search::Objective> objectives;
  };

  void plan() {
    const std::size_t unit_size = sweep_.unit_size != 0
                                      ? sweep_.unit_size
                                      : default_unit_size(candidates_.size(), specs_.size());
    Unit nominal;
    nominal.work.id = 0;
    nominal.work.candidates = {base_.flat_priorities()};
    units_.push_back(std::move(nominal));
    for (WorkUnit& planned : plan_units(candidates_, unit_size)) {
      Unit unit;
      unit.work = std::move(planned);
      WHARF_EXPECT(unit.work.id == units_.size(), "unit ids must be dense");
      units_.push_back(std::move(unit));
    }
    for (std::uint64_t id = 0; id < units_.size(); ++id) {
      units_[id].queued = true;
      pending_.push_back(id);
    }
    telemetry_.workers = static_cast<int>(specs_.size());
    telemetry_.units = units_.size();
  }

  bool start_worker(std::size_t w) {
    Expected<WorkerLink> link = WorkerLink::open(specs_[w]);
    if (!link.has_value()) {
      note_start_failure(w, link.status().message());
      return false;
    }
    Worker& worker = workers_[w];
    worker.link = std::make_unique<WorkerLink>(std::move(link.value()));
    worker.ready = false;
    ++live_workers_;
    reactor_.add_fd(worker.link->fd(), EPOLLIN,
                    [this, w](std::uint32_t /*events*/) { on_events(w); });
    if (!worker.link->send_line(open_request_)) {
      note_start_failure(w, "cannot send the open_session request");
      worker_down(w);
      return false;
    }
    return true;
  }

  /// Keeps the first reason a worker could not be started, prefixed
  /// with its peer ("host:port", or "worker <i>" in spawn mode).
  void note_start_failure(std::size_t w, const std::string& reason) {
    if (!first_start_failure_.empty()) return;
    const WorkerSpec& spec = specs_[w];
    first_start_failure_ = spec.binary.empty() ? util::cat(spec.host, ":", spec.port, ": ", reason)
                                               : util::cat("worker ", w, ": ", reason);
  }

  /// Deregisters and closes worker `w`'s stream.  EOF on its stdin makes
  /// a spawned `wharf serve` exit through the graceful persist path by
  /// itself.
  void sever(std::size_t w) {
    WorkerLink& link = *workers_[w].link;
    reactor_.remove_fd(link.fd());
    link.close_fd();
  }

  /// Reaps a severed worker's child (the wait ends when it exits) and
  /// drops the link.
  void drop(std::size_t w) {
    Worker& worker = workers_[w];
    worker.link->reap(/*grace_ms=*/2000);
    worker.link.reset();
    worker.ready = false;
    --live_workers_;
  }

  /// Severs worker `w`'s transport and reaps its child.
  void detach_link(std::size_t w) {
    if (!workers_[w].link) return;
    sever(w);
    drop(w);
  }

  void on_events(std::size_t w) {
    Worker& worker = workers_[w];
    if (!worker.link) return;
    char chunk[65536];
    const ssize_t n = ::read(worker.link->fd(), chunk, sizeof chunk);
    if (n == 0) {
      worker_down(w);
      return;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return;
      worker_down(w);
      return;
    }
    worker.link->lines().feed(chunk, static_cast<std::size_t>(n));
    std::string line;
    // A line handler may kill, restart, or disqualify this very worker —
    // re-check the link each iteration (a restart swaps in a fresh,
    // empty assembler, which simply yields kNone).
    while (workers_[w].link != nullptr && !done_) {
      const io::LineAssembler::Result result = workers_[w].link->lines().next(line);
      if (result == io::LineAssembler::Result::kNone) break;
      if (result == io::LineAssembler::Result::kOversized) {
        disqualify(w);
        break;
      }
      on_line(w, line);
    }
  }

  void on_line(std::size_t w, const std::string& line) {
    io::JsonValue doc;
    std::string type;
    try {
      doc = io::parse_json(line);
      type = doc.at("type").as_string();
    } catch (const std::exception&) {
      disqualify(w);
      return;
    }
    if (type == "error") {
      // The worker could not even parse our request line — systemically
      // broken for this sweep; its units go elsewhere.
      disqualify(w);
      return;
    }
    const io::JsonValue* status = doc.find("status");
    const bool ok = status != nullptr && status->kind() == io::JsonValue::Kind::kString &&
                    status->as_string() == "ok";
    if (type == "open_session") {
      if (!ok) {
        // The base system/options are identical for every worker — a
        // rejected open would reject everywhere, so fail the sweep with
        // the worker's reason instead of cycling restarts.
        const io::JsonValue* reason = doc.find("reason");
        finish(Status::internal(util::cat(
            "worker rejected open_session: ",
            reason != nullptr && reason->kind() == io::JsonValue::Kind::kString
                ? reason->as_string()
                : std::string("(no reason)"))));
        return;
      }
      workers_[w].ready = true;
      refill(w);
      return;
    }
    if (type != "evaluate") return;  // close/shutdown/diagnostics echoes
    if (!ok) {
      disqualify(w);
      return;
    }
    try {
      const std::uint64_t unit_id = static_cast<std::uint64_t>(doc.at("unit").as_int());
      std::vector<search::Objective> objectives = parse_objectives(doc);
      on_result(w, unit_id, std::move(objectives));
    } catch (const std::exception&) {
      disqualify(w);
    }
  }

  void on_result(std::size_t w, std::uint64_t unit_id,
                 std::vector<search::Objective> objectives) {
    if (unit_id >= units_.size()) {
      disqualify(w);
      return;
    }
    Unit& unit = units_[unit_id];
    Worker& worker = workers_[w];
    bool counted_live = false;
    const auto it = worker.outstanding.find(unit_id);
    if (it != worker.outstanding.end()) {
      reactor_.cancel_timer(it->second.timer);
      counted_live = !it->second.expired;
      worker.outstanding.erase(it);
    }
    if (unit.completed) {
      // First result won already; this is a steal/re-issue duplicate.
      ++telemetry_.duplicate_results;
      refill(w);
      return;
    }
    if (counted_live && unit.live_copies > 0) --unit.live_copies;
    if (objectives.size() != unit.work.candidates.size()) {
      disqualify(w);
      return;
    }
    unit.completed = true;
    unit.objectives = std::move(objectives);
    ++completed_;
    apply_faults();
    if (completed_ == units_.size()) {
      finish(Status::ok());
      return;
    }
    kick_all();
  }

  void on_deadline(std::size_t w, std::uint64_t unit_id) {
    Worker& worker = workers_[w];
    const auto it = worker.outstanding.find(unit_id);
    if (it == worker.outstanding.end() || it->second.expired) return;
    it->second.expired = true;
    Unit& unit = units_[unit_id];
    if (unit.completed) return;
    if (unit.live_copies > 0) --unit.live_copies;
    ++telemetry_.reissued_units;
    if (!unit.queued) {
      unit.queued = true;
      pending_.push_front(unit_id);  // expired work jumps the queue
    }
    kick_all();
  }

  void worker_down(std::size_t w) {
    Worker& worker = workers_[w];
    if (!worker.link) return;
    ++telemetry_.worker_deaths;
    detach_link(w);
    // Requeue what died with it (in unit-id order; the map is ordered).
    for (const auto& [unit_id, issue] : worker.outstanding) {
      reactor_.cancel_timer(issue.timer);
      Unit& unit = units_[unit_id];
      if (unit.completed) continue;
      if (!issue.expired && unit.live_copies > 0) --unit.live_copies;
      if (unit.live_copies == 0 && !unit.queued) {
        unit.queued = true;
        pending_.push_back(unit_id);
      }
    }
    worker.outstanding.clear();
    if (!worker.disqualified && worker.restarts_left > 0) {
      --worker.restarts_left;
      if (start_worker(w)) ++telemetry_.worker_restarts;
    }
    check_liveness();
    if (!done_) kick_all();
  }

  void disqualify(std::size_t w) {
    ++telemetry_.protocol_errors;
    workers_[w].disqualified = true;
    worker_down(w);
  }

  void check_liveness() {
    if (done_ || live_workers_ > 0) return;
    finish(Status::resource_exhausted(
        util::cat("all workers lost with ", units_.size() - completed_,
                  " of ", units_.size(), " units incomplete")));
  }

  void kick_all() {
    for (std::size_t w = 0; w < workers_.size() && !done_; ++w) {
      if (workers_[w].link && workers_[w].ready) refill(w);
    }
  }

  void refill(std::size_t w) {
    while (!done_ && workers_[w].link && workers_[w].ready &&
           workers_[w].outstanding.size() < static_cast<std::size_t>(sweep_.window)) {
      const std::uint64_t unit_id = next_unit_for(w);
      if (unit_id == kNoUnit) break;
      if (!issue(w, unit_id)) break;  // transport died; worker_down already ran
    }
  }

  std::uint64_t next_unit_for(std::size_t w) {
    // Pending queue first (compacting completed entries as we scan)...
    for (auto it = pending_.begin(); it != pending_.end();) {
      const std::uint64_t unit_id = *it;
      Unit& unit = units_[unit_id];
      if (unit.completed) {
        unit.queued = false;
        it = pending_.erase(it);
        continue;
      }
      if (workers_[w].outstanding.count(unit_id) != 0) {
        ++it;  // already running here (expired copy); leave it for others
        continue;
      }
      unit.queued = false;
      pending_.erase(it);
      return unit_id;
    }
    // ...then steal: duplicate-issue the lowest incomplete unit below
    // the copy cap.  Deterministic choice; correctness never depends on
    // it (first result wins).
    for (std::uint64_t unit_id = 0; unit_id < units_.size(); ++unit_id) {
      const Unit& unit = units_[unit_id];
      if (unit.completed || unit.queued) continue;
      if (unit.live_copies >= kMaxLiveCopies) continue;
      if (workers_[w].outstanding.count(unit_id) != 0) continue;
      ++telemetry_.stolen_units;
      return unit_id;
    }
    return kNoUnit;
  }

  bool issue(std::size_t w, std::uint64_t unit_id) {
    Worker& worker = workers_[w];
    Unit& unit = units_[unit_id];
    if (!worker.link->send_line(evaluate_request(unit.work, sweep_.k))) {
      worker_down(w);
      return false;
    }
    Issue record;
    if (sweep_.unit_deadline_ms > 0) {
      record.timer = reactor_.add_timer(
          std::chrono::steady_clock::now() + std::chrono::milliseconds(sweep_.unit_deadline_ms),
          [this, w, unit_id] { on_deadline(w, unit_id); });
    }
    worker.outstanding.emplace(unit_id, record);
    ++unit.live_copies;
    return true;
  }

  void apply_faults() {
    while (next_fault_ < sweep_.faults.size() &&
           sweep_.faults[next_fault_].after_units <= completed_) {
      const FaultInjection fault = sweep_.faults[next_fault_++];
      const auto w = static_cast<std::size_t>(fault.worker);
      if (fault.worker < 0 || w >= workers_.size() || !workers_[w].link) continue;
      if (fault.kind == FaultInjection::Kind::kKillWorker) {
        // Death surfaces as EOF on the link via the reactor.
        workers_[w].link->kill_now();
      } else {
        worker_down(w);  // coordinator-side disconnect
      }
    }
  }

  void finish(Status status) {
    if (done_) return;
    done_ = true;
    final_status_ = std::move(status);
    reactor_.stop();
  }

  /// Ends the sweep's workers: closes every stream first, so all of them
  /// see EOF and exit concurrently, then reaps each.  Retirement costs
  /// about the slowest exit, not the sum of them.
  void retire_all() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].link) sever(w);
    }
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].link) continue;
      drop(w);
      workers_[w].outstanding.clear();
    }
  }

  Expected<SweepOutcome> assemble() {
    SweepOutcome out;
    out.nominal = units_[0].objectives[0];
    std::vector<search::Objective> table(candidates_.size());
    for (std::uint64_t unit_id = 1; unit_id < units_.size(); ++unit_id) {
      const Unit& unit = units_[unit_id];
      for (std::size_t i = 0; i < unit.objectives.size(); ++i) {
        table[unit.work.first + i] = unit.objectives[i];
      }
    }
    out.result = merge_objectives(candidates_, table);
    out.telemetry = telemetry_;
    return out;
  }

  const System& base_;
  const std::vector<std::vector<Priority>>& candidates_;
  const std::vector<WorkerSpec>& specs_;
  SweepOptions sweep_;
  const std::string open_request_;

  net::Reactor reactor_;
  std::vector<Worker> workers_;
  std::vector<Unit> units_;  ///< indexed by unit id (0 = nominal)
  std::deque<std::uint64_t> pending_;
  std::uint64_t completed_ = 0;
  std::size_t next_fault_ = 0;
  int live_workers_ = 0;
  bool done_ = false;
  Status final_status_;
  std::string first_start_failure_;  ///< see note_start_failure()
  SweepTelemetry telemetry_;
};

}  // namespace

Expected<SweepOutcome> run_sweep(const System& base, const TwcaOptions& options,
                                 const std::vector<std::vector<Priority>>& candidates,
                                 const std::vector<WorkerSpec>& workers,
                                 const SweepOptions& sweep) {
  Coordinator coordinator(base, options, candidates, workers, sweep);
  return coordinator.run();
}

}  // namespace wharf::dist
