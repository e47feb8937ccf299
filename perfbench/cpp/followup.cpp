// followup_shard_64: the monitoring half of the paper. One submitting
// thread drives a FrontDoor over shard worker processes that this binary
// spawns in its worker role over unix sockets, the way
// `ccovid_serve --role front` deploys them. Workers run monitoring and
// micro-batching at kernel width 1. Each patient sends follow-up scans
// one at a time, alternating as `ccovid_serve --monitor --rescans` does
// between re-sending its baseline scan, which must come back from the
// result cache, and a new follow-up volume.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "core/parallel.h"
#include "net/socket.h"
#include "serve/shard.h"
#include "serve/shard_spawn.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using ccovid::serve::DiagnoseResponse;

constexpr index_t kDepth = 4;
constexpr index_t kPx = 64;
constexpr int kShards = 2;
/// Patients routed to each shard: at most this many requests are in
/// flight per worker, far below its queue capacity.
constexpr int kPatientsPerShard = 4;
constexpr std::size_t kMaxBatch = 4;
/// Scan j of patient p re-sends the baseline (scan 1) every other scan,
/// as ccovid_serve's alternating rescan rounds do, so half of the scans
/// after the first are re-sends. Odd patients run one round out of
/// phase with even ones, so every micro-batch carries re-sends and new
/// scans instead of alternating between all-hit and all-new batches.
bool is_resend(int p, std::uint32_t j) {
  return j >= 2 && (j + static_cast<std::uint32_t>(p)) % 2 == 0;
}
std::uint32_t source_of(int p, std::uint32_t j) {
  return is_resend(p, j) ? 1 : j;
}

/// Scan j (1-based) of patient p; half of the patients are positive.
Tensor patient_scan(std::uint64_t seed, int p, std::uint32_t j) {
  return make_scan(kDepth, kPx, p % 2 == 1,
                   mix(mix(seed, 0x666f6c6c6f77ull + p), j));
}

/// The first `count` ids at or after `from` that route to each shard.
std::vector<std::vector<std::uint64_t>> ids_per_shard(std::uint64_t from,
                                                      int count) {
  std::vector<std::vector<std::uint64_t>> ids(kShards);
  for (std::uint64_t id = from;; ++id) {
    auto& v = ids[ccovid::serve::route_shard(id, kShards)];
    if (static_cast<int>(v.size()) < count) v.push_back(id);
    bool full = true;
    for (const auto& s : ids) {
      full = full && static_cast<int>(s.size()) == count;
    }
    if (full) return ids;
  }
}

/// Worker report: peak RSS, plus per request (worker-local id, in
/// admission order) the queue wait, admission-to-response time and
/// micro-batch size recovered from the worker's serve spans.
struct WorkerRecord {
  double queue_s = 0.0;
  double total_s = 0.0;
  double batch = 0.0;
};
struct WorkerReport {
  double rss_mb = 0.0;
  std::map<std::uint64_t, WorkerRecord> requests;
};

WorkerReport read_report(const std::string& path) {
  WorkerReport rep;
  FILE* f = std::fopen(path.c_str(), "r");
  if (!f) throw std::runtime_error("followup: missing worker report " + path);
  char key[16];
  while (std::fscanf(f, "%15s", key) == 1) {
    if (!std::strcmp(key, "rss_mb")) {
      if (std::fscanf(f, "%lf", &rep.rss_mb) != 1) break;
    } else if (!std::strcmp(key, "req")) {
      unsigned long long id = 0;
      WorkerRecord w;
      if (std::fscanf(f, "%llu %lf %lf %lf", &id, &w.queue_s, &w.total_s,
                      &w.batch) != 4) {
        break;
      }
      rep.requests[id] = w;
    }
  }
  std::fclose(f);
  return rep;
}

/// Sum of every shard's bytes sent and received in FrontDoor::stats_json.
double frontdoor_bytes(const std::string& stats) {
  double total = 0.0;
  for (const char* key : {"\"bytes_sent\":", "\"bytes_received\":"}) {
    for (std::size_t pos = stats.find(key); pos != std::string::npos;
         pos = stats.find(key, pos + 1)) {
      total += std::strtod(stats.c_str() + pos + std::strlen(key), nullptr);
    }
  }
  return total;
}

/// Spawned shard workers plus the front door connected to them.
class Fleet {
 public:
  Fleet(const Args& a, int setup) {
    std::filesystem::create_directories(a.run_dir);
    const std::string exe = ccovid::serve::self_exe_path();
    const std::string stem = a.run_dir + "/s" + std::to_string(::getpid()) +
                             "_" + std::to_string(setup) + "_";
    try {
      for (int i = 0; i < kShards; ++i) {
        sockets_.push_back(stem + std::to_string(i) + ".sock");
        reports_.push_back(stem + std::to_string(i) + ".txt");
        ::unlink(sockets_.back().c_str());
        ::unlink(reports_.back().c_str());
        pids_.push_back(ccovid::serve::spawn_process(
            {exe, "--role", "worker", "--listen", "unix:" + sockets_.back(),
             "--out", reports_.back(), "--trace", a.trace ? "1" : "0"}));
      }
      std::vector<std::unique_ptr<ccovid::net::Transport>> transports;
      for (int i = 0; i < kShards; ++i) transports.push_back(connect(i));
      ccovid::serve::FrontDoorOptions fopt;
      fopt.monitor = true;
      front_ = std::make_unique<ccovid::serve::FrontDoor>(
          std::move(transports), fopt);
    } catch (...) {
      close();
      throw;
    }
  }
  ~Fleet() {
    try {
      close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "followup: teardown: %s\n", e.what());
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ccovid::serve::FrontDoor& front() { return *front_; }

  /// Connects to worker i once it listens (it builds its pipeline
  /// first); throws as soon as the worker has exited instead.
  std::unique_ptr<ccovid::net::Transport> connect(int i) {
    const auto ep = ccovid::net::Endpoint::parse("unix:" + sockets_[i]);
    const double deadline = now_s() + 60.0;
    for (;;) {
      try {
        return ccovid::net::connect_endpoint(ep, 0.25, 0, i);
      } catch (const ccovid::net::CommError&) {
        const int st = ccovid::serve::wait_process(pids_[i], 0.0);
        if (st != -1 || now_s() > deadline) {
          if (st != -1) pids_[i] = -1;  // reaped
          throw std::runtime_error("followup: shard worker " +
                                   std::to_string(i) + " did not come up");
        }
      }
    }
  }

  /// Drains the front door, waits for every worker to exit and returns
  /// their reports (empty when a worker did not exit cleanly).
  std::vector<WorkerReport> close() {
    if (front_) front_->shutdown();
    front_.reset();
    bool clean = !pids_.empty();
    for (int pid : pids_) {
      if (pid < 0) {
        clean = false;
        continue;
      }
      int st = ccovid::serve::wait_process(pid, 30.0);
      if (st == -1) {
        ccovid::serve::kill_process(pid, SIGKILL);
        st = ccovid::serve::wait_process(pid, 10.0);
      }
      clean = clean && st == 0;
    }
    pids_.clear();
    std::vector<WorkerReport> reps;
    for (const auto& r : reports_) {
      if (clean) reps.push_back(read_report(r));
      ::unlink(r.c_str());
    }
    for (const auto& s : sockets_) ::unlink(s.c_str());
    reports_.clear();
    sockets_.clear();
    if (!clean) reps.clear();
    return reps;
  }

 private:
  std::vector<int> pids_;
  std::vector<std::string> sockets_, reports_;
  std::unique_ptr<ccovid::serve::FrontDoor> front_;
};

struct Scan {
  int patient = 0;
  std::uint32_t j = 0;  ///< 1-based scan ordinal of the patient
  int shard = 0;
  double latency = 0.0;
  double completed_at = 0.0;
  DiagnoseResponse r;
};

struct Patient {
  std::uint64_t id = 0;
  int shard = 0;
  std::uint32_t next = 1;
  long inflight = -1;  ///< index into scans, -1 when idle
  double t_submit = 0.0;
  std::future<DiagnoseResponse> fut;
  Tensor next_volume;  ///< pre-generated scan `next`, when it is new
  bool have_next = false;
  Tensor baseline;  ///< scan 1, which the re-sends repeat
};

}  // namespace

int run_worker(const Args& a) {
  using namespace ccovid;
  set_num_threads(1);
  if (a.trace) {
    // Room for every span of a run: serve spans are read back below.
    trace::set_ring_capacity(std::size_t{1} << 18);
    trace::set_level(1);
  }
  auto pipe = build_pipeline();
  serve::ShardWorkerOptions wopt;
  wopt.server.workers = 1;
  wopt.server.max_batch = kMaxBatch;
  wopt.server.monitor = true;
  net::SocketListener listener(net::Endpoint::parse(a.listen));
  serve::run_worker_listener(listener, std::move(pipe), wopt, 60.0);

  std::string out = "rss_mb " + std::to_string(peak_rss_mb()) + "\n";
  if (a.trace) {
    trace::set_level(0);
    const trace::Snapshot snap = trace::snapshot();
    struct Span {
      std::uint64_t t0, t1;
      std::uint32_t tid;
    };
    std::unordered_map<std::uint64_t, std::uint64_t> admit;
    std::map<std::uint64_t, Span> respond;
    std::vector<Span> execute;
    for (const auto& e : snap.events) {
      if (e.kind != trace::Kind::kSpan || !e.name) continue;
      if (!std::strcmp(e.name, "serve.admit")) {
        admit[e.id] = e.t0_ns;
      } else if (!std::strcmp(e.name, "serve.respond")) {
        respond[e.id] = {e.t0_ns, e.t1_ns, e.tid};
      } else if (!std::strcmp(e.name, "serve.batch.execute")) {
        execute.push_back({e.t0_ns, e.t1_ns, e.tid});
      }
    }
    // A request's batch is the execute span enclosing its respond span.
    std::vector<int> members(execute.size(), 0);
    std::map<std::uint64_t, std::size_t> batch_of;
    for (const auto& [id, r] : respond) {
      for (std::size_t b = 0; b < execute.size(); ++b) {
        if (execute[b].tid == r.tid && execute[b].t0 <= r.t0 &&
            r.t1 <= execute[b].t1) {
          batch_of[id] = b;
          ++members[b];
          break;
        }
      }
    }
    char line[128];
    for (const auto& [id, b] : batch_of) {
      const auto ad = admit.find(id);
      if (ad == admit.end()) continue;
      std::snprintf(line, sizeof(line), "req %llu %.9g %.9g %d\n",
                    static_cast<unsigned long long>(id),
                    1e-9 * static_cast<double>(execute[b].t0 - ad->second),
                    1e-9 * static_cast<double>(respond[id].t1 - ad->second),
                    members[b]);
      out += line;
    }
    if (snap.dropped) {
      std::fprintf(stderr, "perfbench worker: %llu trace records dropped\n",
                   static_cast<unsigned long long>(snap.dropped));
    }
  }
  FILE* f = std::fopen(a.out.c_str(), "w");
  if (!f) return 1;
  std::fputs(out.c_str(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}

Result run_followup(const Args& a) {
  using namespace ccovid;
  Result res;
  res.width = 1;  // per worker process

  const auto patient_ids = ids_per_shard(1000, kPatientsPerShard);
  const auto warm_ids = ids_per_shard(1, 1);

  // Set-up: spawn + handshake, then one warm-up scan per shard (graph
  // compile at this shape) from patients outside the timed set.
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setups, spawns;
  std::vector<std::vector<long>> order;  ///< per shard: scans in send order
  for (int s = 0; s < kSetups; ++s) {
    fleet.reset();  // the previous set-up's workers drain and exit
    order.assign(kShards, {});
    const double t0 = now_s();
    fleet = std::make_unique<Fleet>(a, s);
    spawns.push_back(now_s() - t0);
    std::vector<std::future<DiagnoseResponse>> warm;
    for (int sh = 0; sh < kShards; ++sh) {
      warm.push_back(fleet->front().submit(
          warm_ids[sh][0], patient_scan(a.seed, -1 - sh, 1)));
      order[sh].push_back(-1);
    }
    for (auto& w : warm) {
      if (w.get().status != serve::RequestStatus::kOk) {
        throw std::runtime_error("followup: warm-up scan failed");
      }
    }
    setups.push_back(now_s() - t0);
  }

  std::vector<Patient> patients;
  for (int sh = 0; sh < kShards; ++sh) {
    for (std::uint64_t id : patient_ids[sh]) {
      Patient p;
      p.id = id;
      p.shard = sh;
      p.next_volume =
          patient_scan(a.seed, static_cast<int>(patients.size()), 1);
      p.have_next = true;
      patients.push_back(std::move(p));
    }
  }
  std::vector<Scan> scans;
  serve::FrontDoor& front = fleet->front();

  auto submit = [&](int pi) {
    Patient& p = patients[static_cast<std::size_t>(pi)];
    const std::uint32_t j = p.next++;
    if (!is_resend(pi, j) && !p.have_next) {
      p.next_volume = patient_scan(a.seed, pi, j);
    }
    Tensor vol = is_resend(pi, j) ? p.baseline : p.next_volume;
    p.have_next = false;
    if (j == 1) p.baseline = vol;
    Scan sc;
    sc.patient = pi;
    sc.j = j;
    sc.shard = p.shard;
    order[p.shard].push_back(static_cast<long>(scans.size()));
    p.inflight = static_cast<long>(scans.size());
    scans.push_back(std::move(sc));
    p.t_submit = now_s();
    p.fut = front.submit(p.id, vol);
  };
  // Generates each in-flight patient's next new scan while its current
  // one computes.
  auto prepare_next = [&] {
    for (int pi = 0; pi < static_cast<int>(patients.size()); ++pi) {
      Patient& p = patients[static_cast<std::size_t>(pi)];
      if (p.inflight < 0 || p.have_next || is_resend(pi, p.next)) continue;
      p.next_volume = patient_scan(a.seed, pi, p.next);
      p.have_next = true;
    }
  };

  const auto cpu0 = cpu_jiffies();
  const double bytes0 = frontdoor_bytes(front.stats_json());
  const double start = now_s();
  for (int pi = 0; pi < static_cast<int>(patients.size()); ++pi) submit(pi);
  std::size_t done = 0;
  for (;;) {
    const bool stop = now_s() - start >= a.seconds && done >= kMinOps;
    bool busy = false, progressed = false;
    for (int pi = 0; pi < static_cast<int>(patients.size()); ++pi) {
      Patient& p = patients[static_cast<std::size_t>(pi)];
      if (p.inflight < 0) continue;
      busy = true;
      if (p.fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      Scan& sc = scans[static_cast<std::size_t>(p.inflight)];
      sc.r = p.fut.get();
      sc.completed_at = now_s();
      sc.latency = sc.completed_at - p.t_submit;
      p.inflight = -1;
      ++done;
      progressed = true;
      if (!stop) submit(pi);
    }
    if (!busy) break;
    if (progressed) continue;
    // Only in a sweep that found nothing ready: the scans a finished
    // micro-batch releases go out together and batch together again.
    prepare_next();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double bytes = frontdoor_bytes(front.stats_json()) - bytes0;
  note_host_load(cpu0, res);
  const double front_rss = peak_rss_mb();
  const std::vector<WorkerReport> reports = fleet->close();
  if (reports.size() != static_cast<std::size_t>(kShards)) {
    throw std::runtime_error("followup: a shard worker did not exit cleanly");
  }

  // Output checks, outside the timed phase, against a width-1 reference
  // of every distinct scan computed in this process.
  std::vector<Tensor> volumes;
  std::map<std::pair<int, std::uint32_t>, std::size_t> ref_of;
  for (const Scan& sc : scans) {
    if (is_resend(sc.patient, sc.j)) continue;
    ref_of[{sc.patient, sc.j}] = volumes.size();
    volumes.push_back(patient_scan(a.seed, sc.patient, sc.j));
  }
  const auto refs = reference_diagnoses(*build_pipeline(), volumes,
                                        host_cpus());
  auto burden = [&](int p, std::uint32_t j) {
    return refs[ref_of.at({p, source_of(p, j)})].infection_burden;
  };
  std::size_t hits = 0, resends = 0;
  res.attempted = scans.size();
  for (const Scan& sc : scans) {
    const DiagnoseResponse& r = sc.r;
    const bool resend = is_resend(sc.patient, sc.j);
    const auto& ref =
        refs[ref_of.at({sc.patient, source_of(sc.patient, sc.j)})];
    const double b = burden(sc.patient, sc.j);
    const double prev = sc.j > 1 ? b - burden(sc.patient, sc.j - 1) : 0.0;
    const double base = sc.j > 1 ? b - burden(sc.patient, 1) : 0.0;
    resends += resend;
    hits += r.cache_hit;
    const bool ok =
        r.status == serve::RequestStatus::kOk &&
        same_bits(r.diagnosis.probability, ref.probability) &&
        r.diagnosis.positive == ref.positive &&
        same_bits(r.infection_burden, ref.infection_burden) &&
        r.scan_seq == sc.j && same_bits(r.burden_delta, prev) &&
        same_bits(r.baseline_delta, base) &&
        r.cache_hit == resend;
    if (ok) continue;
    ++res.failed;
    if (r.status == serve::RequestStatus::kOk) res.correct = false;
    std::fprintf(stderr,
                 "followup_shard_64: patient %d scan %u failed its check "
                 "(%s seq %llu hit %d %s)\n",
                 sc.patient, sc.j, serve::to_string(r.status),
                 static_cast<unsigned long long>(r.scan_seq),
                 r.cache_hit ? 1 : 0, r.error.c_str());
  }
  if (hits != resends) res.correct = false;

  auto& m = res.values;
  std::vector<double> latency, completions;
  for (const Scan& sc : scans) {
    latency.push_back(sc.latency);
    completions.push_back(sc.completed_at);
  }
  double rss = front_rss;
  for (const auto& rep : reports) rss += rep.rss_mb;
  m["throughput_per_s"] = window_rate(completions, start);
  m["latency_p50_s"] = median(latency);
  m["setup_s"] = median(setups);
  m["peak_rss_mb"] = rss;
  if (!a.trace) return res;

  // Worker-local request ids count admissions in send order per shard.
  std::vector<double> queue, overhead, batch, execute, hit_latency;
  std::vector<double> prep, enh, seg, cls;
  for (int sh = 0; sh < kShards; ++sh) {
    for (std::size_t k = 0; k < order[sh].size(); ++k) {
      if (order[sh][k] < 0) continue;
      const Scan& sc = scans[static_cast<std::size_t>(order[sh][k])];
      const auto w = reports[sh].requests.find(k + 1);
      if (w != reports[sh].requests.end()) {
        queue.push_back(w->second.queue_s);
        overhead.push_back(sc.latency - w->second.total_s);
        batch.push_back(w->second.batch);
      }
    }
  }
  for (const Scan& sc : scans) {
    execute.push_back(sc.r.execute_s);
    if (sc.r.cache_hit) {
      hit_latency.push_back(sc.latency);
      continue;
    }
    prep.push_back(sc.r.stages.prepare_s);
    enh.push_back(sc.r.stages.enhance_s);
    seg.push_back(sc.r.stages.segment_s);
    cls.push_back(sc.r.stages.classify_s);
  }
  m["pipeline.prepare_s"] = median(prep);
  m["pipeline.enhance_s"] = median(enh);
  m["pipeline.segment_s"] = median(seg);
  m["pipeline.classify_s"] = median(cls);
  m["serve.queue_wait_p50_s"] = median(queue);
  m["serve.execute_p50_s"] = median(execute);
  m["serve.batch_size_mean"] = mean(batch);
  m["monitor.hit_rate"] =
      static_cast<double>(hits) / static_cast<double>(scans.size());
  m["monitor.hit_latency_p50_s"] = median(hit_latency);
  m["shard.overhead_p50_s"] = median(overhead);
  m["net.bytes_per_scan"] = bytes / static_cast<double>(scans.size());
  m["shard.spawn_s"] = median(spawns);
  if (queue.size() != scans.size()) {
    std::fprintf(stderr,
                 "followup_shard_64: worker spans cover %zu of %zu scans\n",
                 queue.size(), scans.size());
  }
  return res;
}

}  // namespace perfbench
