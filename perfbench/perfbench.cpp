/// perfbench — the repository benchmark driver.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
///
/// Runs one workload repeatedly for S seconds, cycling through the
/// workload's fixed pool of algorithm seeds in an order drawn from N (every
/// repetition pays its own set-up), checks every repetition's output against
/// the values pinned for its pool seed, and prints one JSON object as the
/// last line of stdout:
///
///   {"correct": ..., "attempted": reps, "failed": reps, "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end ones (medians over the
/// pool). With --trace 1 they are the per-layer ones plus
/// obs.trace_overhead; on the workloads whose layer clocks are the
/// benchmark's own (serial-deep, virtual-paper) repetitions then alternate
/// untraced / traced and the layer figures come from the traced ones.
/// Layers a workload does not run report 0. README.md beside this file
/// documents the workloads, the metrics and what each per-layer metric
/// should move.
///
/// Every workload drives one execution path through its public entry
/// points and times it from outside:
///   serial-deep    benchmark-owned next_offspring_handle -> evaluate ->
///                  receive_handle loop, 5-objective DTLZ2, heavy archive;
///   virtual-paper  AsyncMasterSlaveExecutor on a Table II cell (P = 1024);
///   tcp-fleet      TcpMasterSlaveExecutor + two spawned borg_worker
///                  processes over loopback (epoll, pipeline depth 8);
///   thread-window  ThreadMasterSlaveExecutor, two threads, dispatch order.
///
/// --smoke shrinks every workload to a tiny budget, a low quality threshold
/// and one pool seed (with its own pinned values); smoke.py uses it.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics/hypervolume.hpp"
#include "models/simulation_model.hpp"
#include "moea/borg.hpp"
#include "moea/dominance.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/async_executor.hpp"
#include "parallel/tcp_executor.hpp"
#include "parallel/thread_executor.hpp"
#include "parallel/trajectory.hpp"
#include "problems/problem.hpp"
#include "problems/reference_set.hpp"
#include "stats/distribution.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

#ifndef BORG_WORKER_BIN
#error "BORG_WORKER_BIN must name the borg_worker binary"
#endif

namespace {

using namespace borg;
using Clock = std::chrono::steady_clock;
constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct CpuTimes {
    double user = 0.0;
    double sys = 0.0;
    double total() const { return user + sys; }
};

CpuTimes rusage_cpu(int who) {
    rusage usage{};
    ::getrusage(who, &usage);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return {tv(usage.ru_utime), tv(usage.ru_stime)};
}

double peak_rss_mib() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

double p99(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t k = (v.size() * 99) / 100;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

// ------------------------------------------------------------- workloads

/// What one pool seed must produce at the workload's budget.
struct Pin {
    std::uint64_t seed = 0;
    std::uint64_t digest = 0; ///< front_digest of the archive objectives
    std::size_t archive = 0;
    std::size_t population = 0;
    std::uint64_t restarts = 0;
    /// Results at the first trajectory checkpoint whose normalized
    /// hypervolume is >= h, and that hypervolume (0 on thread-window,
    /// whose executor takes no recorder).
    std::uint64_t crossing = 0;
    double crossing_hv = 0.0;
    /// virtual-paper only: virtual T_P and virtual time to h.
    double virtual_tp = 0.0;
    double virtual_tth = 0.0;
};

struct Spec {
    std::string name;
    std::string problem;
    double epsilon = 0.0;
    std::uint64_t evaluations = 0;
    /// Normalized-hypervolume threshold of time_to_h_s.
    double h = 0.0;
    /// Trajectory checkpoint interval (results).
    std::uint64_t interval = 0;
    /// Fronts are snapshotted only up to this many results (the crossing
    /// comes earlier), which bounds the off-clock hypervolume work.
    std::uint64_t record_until = 0;
    /// The benchmark adds clocks to traced repetitions (serial-deep,
    /// virtual-paper); elsewhere the layer figures are always collected.
    bool traced_clocks = false;
    /// The seeds every run cycles through, and the smoke budget's one.
    std::vector<Pin> pool;
    Pin smoke_pin;
};

// Virtual-paper's Table II cell: DTLZ2_5, P = 1024, T_F = 10 ms (cv 0.1),
// T_C = 6 us, T_A sampled around the paper's 45 us mean (cv 0.2, as in
// bench/table2_scalability).
constexpr std::uint64_t kProcessors = 1024;
constexpr double kTf = 0.010;
constexpr double kTfCv = 0.1;
constexpr double kTc = 6e-6;
constexpr double kTa = 45e-6;
constexpr double kTaCv = 0.2;

// tcp-fleet: two worker processes, eight tasks in flight on each.
constexpr std::size_t kTcpWorkers = 2;
constexpr std::size_t kTcpDepth = 8;
// thread-window: two worker threads.
constexpr std::size_t kThreads = 2;

// Pinned values: {seed, digest, archive, population, restarts, crossing
// results, crossing hypervolume, virtual T_P, virtual time to h}, floats
// as hex so they compare bit for bit. A change in any of them means the
// algorithm's behaviour changed, not its speed; the driver prints the
// observed tuples to stderr ("pin {...}").
std::vector<Spec> specs() {
    std::vector<Spec> out(4);
    out[0] = {"serial-deep", "dtlz2_5", 0.06, 40000, 0.9, 1000, 18000, true,
              {{1, 0xc4b3a3cb545675afULL, 4194, 8880, 6, 12000,
                0x1.d3a83d6a48a01p-1, 0.0, 0.0},
               {7920, 0x523da5b9a4f7d38eULL, 4292, 7956, 6, 11000,
                0x1.d285b6c6d789p-1, 0.0, 0.0},
               {15839, 0x586fa4fa146f8cfbULL, 4213, 8536, 5, 11000,
                0x1.cf5cf3dd42c53p-1, 0.0, 0.0},
               {23758, 0x530004a4c7d84b82ULL, 4206, 8816, 5, 12000,
                0x1.cddc33b8b3ebdp-1, 0.0, 0.0}},
              {1, 0xef2ad14dbfe2cd92ULL, 363, 363, 2, 100,
               0x1.26cebc5e2da95p-4, 0.0, 0.0}};
    out[1] = {"virtual-paper", "dtlz2_5", 0.15, 150000, 0.95, 1000, 60000,
              true,
              {{1, 0xb2743b2ec5e804deULL, 243, 243, 45, 29000,
                0x1.e6a4f681e1154p-1, 0x1.11b83b4aa1f07p+3,
                0x1.a91ce2ce1b447p+0},
               {7920, 0x408de82ae4836fe6ULL, 243, 243, 45, 28000,
                0x1.e78b41b51f4cap-1, 0x1.11cb42ee1700dp+3,
                0x1.9a521c94b8f0fp+0},
               {15839, 0x2eca2a56b8275178ULL, 242, 242, 42, 27000,
                0x1.e69ae64abf9c3p-1, 0x1.1212a57a92639p+3,
                0x1.8c983b83e3f48p+0},
               {23758, 0x114dc34bb4f3063aULL, 231, 924, 40, 28000,
                0x1.e68bde67c07b8p-1, 0x1.11fb25bce181p+3,
                0x1.9aa48f31f3c91p+0}},
              {1, 0x04dfaa2b87d52822ULL, 151, 528, 2, 200,
               0x1.263b7412bcf59p-4, 0x1.6e8ea5519166cp-3,
               0x1.3f3b2b2a79e0ep-6}};
    out[2] = {"tcp-fleet", "zdt1", 0.01, 100000, 0.99, 1000, 30000, false,
              {{1, 0x525e55fce652df58ULL, 75, 75, 75, 11000,
                0x1.fae4067683ac6p-1, 0.0, 0.0},
               {7920, 0xd24ccf55cdd7b839ULL, 75, 75, 80, 12000,
                0x1.fb175b401f607p-1, 0.0, 0.0},
               {15839, 0x1e5c6766ee5ae465ULL, 75, 75, 76, 11000,
                0x1.faef3d9c69396p-1, 0.0, 0.0},
               {23758, 0x5cad899efb237911ULL, 75, 75, 75, 14000,
                0x1.faf5f0deae632p-1, 0.0, 0.0}},
              {1, 0xce584b3ae1a5b364ULL, 25, 100, 0, 1000,
               0x1.abb1d075ed5e7p-4, 0.0, 0.0}};
    // thread-window: the executor takes no recorder. Its crossing counts
    // come from a serial replay of the executor's dispatch-order calls at
    // window 2 with a recorder attached; its hypervolumes are not checked.
    out[3] = {"thread-window", "zdt1", 0.01, 100000, 0.99, 1000, 30000, false,
              {{1, 0x33fb97490bb44a3fULL, 75, 75, 81, 10000, 0.0, 0.0, 0.0},
               {7920, 0xbce99a450e55ba9aULL, 75, 75, 77, 12000, 0.0, 0.0, 0.0},
               {15839, 0x93259ae113f470c6ULL, 75, 75, 79, 11000, 0.0, 0.0,
                0.0},
               {23758, 0x059ea5b4711a9962ULL, 75, 75, 78, 12000, 0.0, 0.0,
                0.0}},
              {1, 0x7c76a5fa23ba9300ULL, 31, 100, 0, 700, 0.0, 0.0, 0.0}};
    return out;
}

Spec smoke(Spec s) {
    s.evaluations = std::max<std::uint64_t>(s.evaluations / 50, 2000);
    s.interval = 100;
    s.record_until = s.evaluations;
    s.h = 0.05;
    s.pool = {s.smoke_pin};
    return s;
}

// ------------------------------------------------------------- helpers

/// Exact hypervolume up to ~510 points in 5 objectives (the 495-point
/// DTLZ2_5 reference set, virtual-paper's ~240-member archive, every
/// 2-objective front); beyond that a fixed-seed Monte Carlo estimate,
/// which keeps resolving serial-deep's thousand-member fronts cheap.
/// Deterministic either way.
metrics::HypervolumeNormalizer make_normalizer(const std::string& problem) {
    metrics::HvConfig config;
    config.mc_samples = 20000;
    config.exact_budget = 6e6;
    return metrics::HypervolumeNormalizer(problems::reference_set_for(problem),
                                          0.1, config);
}

moea::BorgMoea make_algorithm(const problems::Problem& problem,
                              const Spec& spec, std::uint64_t seed) {
    moea::BorgParams params =
        moea::BorgParams::for_problem(problem, spec.epsilon);
    params.initial_population_size = 100;
    return moea::BorgMoea(problem, params, seed);
}

/// End state read through the algorithm's public inspectors.
struct EndState {
    std::uint64_t digest = 0;
    std::size_t archive = 0;
    std::size_t population = 0;
    std::uint64_t restarts = 0;
    bool nondominated = false;
};

EndState end_state(const moea::BorgMoea& algorithm) {
    const metrics::Front front = algorithm.archive().objective_vectors();
    EndState s;
    s.digest = parallel::front_digest(front);
    s.archive = front.size();
    s.population = algorithm.population().size();
    s.restarts = algorithm.restarts();
    // An ε-archive never holds a Pareto-dominated member.
    s.nondominated = true;
    for (std::size_t i = 0; i < front.size() && s.nondominated; ++i)
        for (std::size_t j = 0; j < front.size(); ++j)
            if (i != j && moea::dominates(front[i], front[j])) {
                s.nondominated = false;
                break;
            }
    return s;
}

/// The Problem seen by the executors on virtual-paper and thread-window:
/// forwards to the real problem, stamps the wall clock every `interval`
/// evaluations (after `offset` leading ones), and — when traced — times
/// each evaluation. Thread-safe: the thread executor evaluates from its
/// worker threads.
class ClockedProblem final : public problems::Problem {
public:
    ClockedProblem(const problems::Problem& inner, std::uint64_t offset,
                   std::uint64_t interval, std::uint64_t evaluations,
                   bool time_calls)
        : inner_(inner), offset_(offset), interval_(interval),
          time_calls_(time_calls), stamps_(evaluations / interval + 2) {}

    std::string name() const override { return inner_.name(); }
    std::size_t num_variables() const override {
        return inner_.num_variables();
    }
    std::size_t num_objectives() const override {
        return inner_.num_objectives();
    }
    std::size_t num_constraints() const override {
        return inner_.num_constraints();
    }
    double lower_bound(std::size_t i) const override {
        return inner_.lower_bound(i);
    }
    double upper_bound(std::size_t i) const override {
        return inner_.upper_bound(i);
    }
    void evaluate(std::span<const double> variables,
                  std::span<double> objectives) const override {
        evaluate(variables, objectives, {});
    }
    void evaluate(std::span<const double> variables,
                  std::span<double> objectives,
                  std::span<double> violations) const override {
        if (time_calls_) {
            const auto t0 = Clock::now();
            inner_.evaluate(variables, objectives, violations);
            eval_ns_.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count()),
                std::memory_order_relaxed);
        } else {
            inner_.evaluate(variables, objectives, violations);
        }
        const std::uint64_t c =
            count_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (c >= offset_ && (c - offset_) % interval_ == 0) {
            const std::uint64_t slot = (c - offset_) / interval_;
            if (slot < stamps_.size()) stamps_[slot] = Clock::now();
        }
    }

    /// Result count -> wall seconds since \p start at which the stamped
    /// evaluation for that count happened (counts are multiples of the
    /// interval).
    std::map<std::uint64_t, double> wall_at(Clock::time_point start) const {
        std::map<std::uint64_t, double> out;
        for (std::size_t slot = 1; slot < stamps_.size(); ++slot)
            if (stamps_[slot] != Clock::time_point{})
                out[slot * interval_] =
                    std::chrono::duration<double>(stamps_[slot] - start)
                        .count();
        return out;
    }

    double evaluate_us() const {
        const std::uint64_t n = count_.load();
        return n ? static_cast<double>(eval_ns_.load()) * 1e-3 /
                       static_cast<double>(n)
                 : 0.0;
    }

private:
    const problems::Problem& inner_;
    std::uint64_t offset_;
    std::uint64_t interval_;
    bool time_calls_;
    mutable std::vector<Clock::time_point> stamps_;
    mutable std::atomic<std::uint64_t> count_{0};
    mutable std::atomic<std::uint64_t> eval_ns_{0};
};

/// Per-call clocks of the traced serial loop (seconds).
struct LoopClocks {
    std::vector<double> generate, evaluate, ingest;
};

/// The serial Borg loop: request an offspring, evaluate it, ingest it.
void serial_loop(moea::BorgMoea& algorithm, const problems::Problem& problem,
                 std::uint64_t evaluations,
                 const std::function<void(std::uint64_t)>& on_result,
                 LoopClocks* clocks) {
    moea::SolutionPool& pool = algorithm.pool();
    for (std::uint64_t done = 1; done <= evaluations; ++done) {
        if (!clocks) {
            const moea::SolutionHandle h = algorithm.next_offspring_handle();
            moea::evaluate(problem, pool, h);
            algorithm.receive_handle(h);
        } else {
            const auto t0 = Clock::now();
            const moea::SolutionHandle h = algorithm.next_offspring_handle();
            const auto t1 = Clock::now();
            moea::evaluate(problem, pool, h);
            const auto t2 = Clock::now();
            algorithm.receive_handle(h);
            const auto t3 = Clock::now();
            clocks->generate.push_back(
                std::chrono::duration<double>(t1 - t0).count());
            clocks->evaluate.push_back(
                std::chrono::duration<double>(t2 - t1).count());
            clocks->ingest.push_back(
                std::chrono::duration<double>(t3 - t2).count());
        }
        on_result(done);
    }
}

// ------------------------------------------------------------- worker fleet

/// borg_worker processes, started with posix_spawn: unlike fork, its cost
/// does not grow with the master's memory, so set-up does not time the
/// benchmark's own heap. Every exit path reaps them: reap() waits for a
/// voluntary exit and falls back to SIGKILL; the destructor SIGKILLs and
/// reaps whatever is left (an exception mid-run).
class WorkerFleet {
public:
    WorkerFleet(std::uint16_t port, const std::string& problem,
                std::uint64_t token, std::size_t count) {
        std::vector<std::string> args = {
            BORG_WORKER_BIN, "--connect",
            "127.0.0.1:" + std::to_string(port), "--problem", problem,
            "--token", std::to_string(token)};
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t quiet;
        ::posix_spawn_file_actions_init(&quiet);
        ::posix_spawn_file_actions_addopen(&quiet, STDOUT_FILENO, "/dev/null",
                                           O_WRONLY, 0);
        ::posix_spawn_file_actions_adddup2(&quiet, STDOUT_FILENO,
                                           STDERR_FILENO);
        int error = 0;
        for (std::size_t i = 0; i < count && error == 0; ++i) {
            pid_t pid = 0;
            error = ::posix_spawn(&pid, BORG_WORKER_BIN, &quiet, nullptr,
                                  argv.data(), environ);
            if (error == 0) pids_.push_back(pid);
        }
        ::posix_spawn_file_actions_destroy(&quiet);
        if (error != 0) {
            kill_all();
            throw std::runtime_error("posix_spawn failed");
        }
    }
    ~WorkerFleet() { kill_all(); }
    WorkerFleet(const WorkerFleet&) = delete;
    WorkerFleet& operator=(const WorkerFleet&) = delete;

    /// Waits up to \p timeout for every worker to exit; SIGKILLs and reaps
    /// the rest. Returns how many had to be killed or exited non-zero.
    std::size_t reap(std::chrono::milliseconds timeout) {
        std::size_t bad = 0;
        const auto deadline = Clock::now() + timeout;
        for (pid_t pid : pids_) {
            int status = 0;
            pid_t got = 0;
            while ((got = ::waitpid(pid, &status, WNOHANG)) == 0 &&
                   Clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (got == 0) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                ++bad;
            } else if (got < 0 || !WIFEXITED(status) ||
                       WEXITSTATUS(status) != 0) {
                ++bad;
            }
        }
        pids_.clear();
        return bad;
    }

private:
    void kill_all() {
        for (pid_t pid : pids_) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        pids_.clear();
    }

    std::vector<pid_t> pids_;
};

// ------------------------------------------------------------- one rep

struct Rep {
    bool traced = false;
    double setup_s = 0.0;
    double wall_s = 0.0; ///< first offspring requested -> N-th ingested
    double cpu_s = 0.0;  ///< master CPU over the same interval
    std::uint64_t results = 0;
    EndState end;
    /// Result count -> wall seconds since the first offspring, at every
    /// trajectory checkpoint.
    std::map<std::uint64_t, double> wall_at;
    /// Set when this repetition resolved its trajectory: the first
    /// checkpoint whose normalized hypervolume reached h (+inf time and
    /// count 0 if none did).
    std::optional<parallel::TrajectoryPoint> crossing;
    double virtual_tp = 0.0; ///< virtual-paper: virtual T_P
    double time_to_h_s = kInf;
    std::map<std::string, double> layers;
    std::string failure;
    std::size_t slot = 0; ///< index into the pool of the seed it ran
};

/// Threads that resolve deferred fronts (off the clock; the values are
/// identical for any count). Leaves one of four cores free.
constexpr std::size_t kResolveThreads = 3;

/// Resolves the deferred fronts off the clock (timed as a layer metric)
/// and records the first checkpoint at or above h.
void resolve(Rep& rep, parallel::TrajectoryRecorder& recorder, double h) {
    const auto t0 = Clock::now();
    util::ThreadPool pool(kResolveThreads);
    const parallel::ResolveStats stats = recorder.resolve_pending(&pool);
    rep.layers["metrics.hv_resolve_s"] = seconds_since(t0);
    rep.layers["metrics.hv_fronts"] = static_cast<double>(stats.computed);
    rep.crossing = parallel::TrajectoryPoint{kInf, 0, 0.0};
    for (const parallel::TrajectoryPoint& p : recorder.points())
        if (p.hypervolume >= h) {
            rep.crossing = p;
            break;
        }
}

void wall_from_points(Rep& rep, const parallel::TrajectoryRecorder& recorder) {
    for (const parallel::TrajectoryPoint& p : recorder.points())
        rep.wall_at[p.evaluations] = p.time;
}

Rep rep_serial(const Spec& spec, std::uint64_t seed, bool traced,
               bool resolve_fronts) {
    Rep rep;
    rep.traced = traced;
    const auto t0 = Clock::now();
    const auto problem = problems::make_problem(spec.problem);
    const auto normalizer = make_normalizer(spec.problem);
    moea::BorgMoea algorithm = make_algorithm(*problem, spec, seed);
    rep.setup_s = seconds_since(t0);

    parallel::TrajectoryRecorder recorder(normalizer, spec.interval, true);
    LoopClocks clocks;
    if (traced) {
        clocks.generate.reserve(spec.evaluations);
        clocks.evaluate.reserve(spec.evaluations);
        clocks.ingest.reserve(spec.evaluations);
    }
    const auto front = [&] { return algorithm.archive().objective_vectors(); };
    const double cpu0 = thread_cpu_s();
    const auto w0 = Clock::now();
    serial_loop(
        algorithm, *problem, spec.evaluations,
        [&](std::uint64_t done) {
            if (done <= spec.record_until)
                recorder.on_result(seconds_since(w0), done, front);
        },
        traced ? &clocks : nullptr);
    rep.wall_s = seconds_since(w0);
    rep.cpu_s = thread_cpu_s() - cpu0;
    rep.results = algorithm.evaluations();
    wall_from_points(rep, recorder);
    if (resolve_fronts) resolve(rep, recorder, spec.h);
    rep.end = end_state(algorithm);
    if (traced) {
        rep.layers["moea.generate_us"] = mean(clocks.generate) * 1e6;
        rep.layers["moea.generate_p99_us"] = p99(clocks.generate) * 1e6;
        rep.layers["moea.ingest_us"] = mean(clocks.ingest) * 1e6;
        rep.layers["moea.ingest_p99_us"] = p99(clocks.ingest) * 1e6;
        rep.layers["problems.evaluate_us"] = mean(clocks.evaluate) * 1e6;
    }
    return rep;
}

Rep rep_virtual(const Spec& spec, std::uint64_t seed, bool traced,
                bool resolve_fronts) {
    Rep rep;
    rep.traced = traced;
    const auto t0 = Clock::now();
    const auto problem = problems::make_problem(spec.problem);
    const auto normalizer = make_normalizer(spec.problem);
    const auto tf = stats::make_delay(kTf, kTfCv);
    const auto tc = stats::make_delay(kTc, 0.0);
    const auto ta = stats::make_delay(kTa, kTaCv);
    // Evaluation P-1+n starts right after result n is served, so stamps
    // offset by the P-1 initial dispatches time the ingests.
    ClockedProblem clocked(*problem, kProcessors - 1, spec.interval,
                           spec.evaluations, traced);
    moea::BorgMoea algorithm = make_algorithm(clocked, spec, seed);
    const std::uint64_t cluster_seed = seed * 1000003 + 17;
    parallel::AsyncMasterSlaveExecutor executor(
        algorithm, clocked,
        {kProcessors, tf.get(), tc.get(), ta.get(), cluster_seed});
    rep.setup_s = seconds_since(t0);

    parallel::TrajectoryRecorder recorder(normalizer, spec.interval, true);
    obs::MetricsRegistry registry;
    const double cpu0 = thread_cpu_s();
    const auto w0 = Clock::now();
    const parallel::VirtualRunResult run = executor.run(
        spec.evaluations,
        {.recorder = &recorder, .metrics = traced ? &registry : nullptr});
    rep.wall_s = seconds_since(w0);
    rep.cpu_s = thread_cpu_s() - cpu0;
    rep.results = run.evaluations;
    if (!run.completed_target) rep.failure = "virtual run starved";
    rep.wall_at = clocked.wall_at(w0);
    if (resolve_fronts) resolve(rep, recorder, spec.h);
    rep.virtual_tp = run.elapsed;
    rep.end = end_state(algorithm);
    if (traced) {
        const double n = static_cast<double>(run.evaluations);
        rep.layers["async.master_busy_fraction"] = run.master_busy_fraction;
        rep.layers["async.queue_wait_mean_s"] = run.mean_queue_wait;
        if (const obs::Gauge* g = registry.find_gauge("des.events"))
            rep.layers["des.events_per_result"] = g->value() / n;
        // The same cell with no algorithm: ClusterEngine + DES alone.
        const auto s0 = Clock::now();
        models::simulate_async({spec.evaluations, kProcessors, tf.get(),
                                tc.get(), ta.get(), cluster_seed});
        const double engine_us = seconds_since(s0) * 1e6 / n;
        rep.layers["engine.us_per_result"] = engine_us;
        rep.layers["problems.evaluate_us"] = clocked.evaluate_us();
        rep.layers["virtual.algorithm_us_per_result"] =
            rep.wall_s * 1e6 / n - engine_us - clocked.evaluate_us();
    }
    return rep;
}

/// No recorder on this path, so set-up builds no reference set or
/// normalizer; the crossing is the pinned one.
Rep rep_thread(const Spec& spec, std::uint64_t seed, bool, bool) {
    Rep rep;
    const auto t0 = Clock::now();
    const auto problem = problems::make_problem(spec.problem);
    ClockedProblem clocked(*problem, 0, spec.interval, spec.evaluations,
                           false);
    moea::BorgMoea algorithm = make_algorithm(clocked, spec, seed);
    parallel::ThreadMasterSlaveExecutor executor(
        kThreads, parallel::IngestOrder::dispatch);
    rep.setup_s = seconds_since(t0);

    const double cpu0 = thread_cpu_s();
    const auto w0 = Clock::now();
    const parallel::ThreadRunResult run =
        executor.run(algorithm, clocked, spec.evaluations);
    rep.wall_s = seconds_since(w0);
    rep.cpu_s = thread_cpu_s() - cpu0;
    rep.results = run.evaluations;
    rep.wall_at = clocked.wall_at(w0);
    rep.end = end_state(algorithm);
    const double ta_us = mean(run.ta_samples) * 1e6;
    rep.layers["thread.ta_us"] = ta_us;
    rep.layers["thread.ta_p99_us"] = p99(run.ta_samples) * 1e6;
    rep.layers["thread.tc_us"] = mean(run.tc_samples) * 1e6;
    rep.layers["thread.tc_p99_us"] = p99(run.tc_samples) * 1e6;
    rep.layers["thread.loop_us_per_result"] =
        rep.cpu_s * 1e6 / static_cast<double>(rep.results) - ta_us;
    rep.layers["thread.master_idle_fraction"] = 1.0 - rep.cpu_s / rep.wall_s;
    return rep;
}

Rep rep_tcp(const Spec& spec, std::uint64_t seed, bool,
            bool resolve_fronts) {
    Rep rep;
    const auto t0 = Clock::now();
    const auto problem = problems::make_problem(spec.problem);
    const auto normalizer = make_normalizer(spec.problem);
    moea::BorgMoea algorithm = make_algorithm(*problem, spec, seed);
    parallel::TcpRunConfig config;
    config.port = 0; // ephemeral: no two runs share a port
    config.workers_expected = kTcpWorkers * kTcpDepth;
    config.pipeline_depth = kTcpDepth;
    config.backend = net::PollerBackend::epoll;
    config.run_token = parallel::generate_run_token();
    config.heartbeat_timeout_ms = 10000;
    config.run_timeout_s = 120.0;
    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem, config);
    WorkerFleet fleet(executor.port(), spec.problem, config.run_token,
                      kTcpWorkers);
    rep.setup_s = seconds_since(t0);

    parallel::TrajectoryRecorder recorder(normalizer, spec.interval, true);
    const CpuTimes children0 = rusage_cpu(RUSAGE_CHILDREN);
    const CpuTimes self0 = rusage_cpu(RUSAGE_SELF);
    const auto w0 = Clock::now();
    const parallel::TcpRunResult run =
        executor.run(spec.evaluations, {.recorder = &recorder});
    rep.wall_s = seconds_since(w0);
    const CpuTimes self1 = rusage_cpu(RUSAGE_SELF);
    rep.cpu_s = self1.total() - self0.total();
    const std::size_t stragglers = fleet.reap(std::chrono::seconds(5));
    const CpuTimes children1 = rusage_cpu(RUSAGE_CHILDREN);
    rep.results = run.run.evaluations;

    const parallel::TcpRunStats& net = run.net;
    if (stragglers != 0)
        rep.failure = std::to_string(stragglers) +
                      " worker(s) killed or failed at shutdown";
    if (net.reassignments || net.heartbeat_timeouts || net.stale_results)
        rep.failure = "transport faults: reassignments=" +
                      std::to_string(net.reassignments) +
                      " heartbeat_timeouts=" +
                      std::to_string(net.heartbeat_timeouts) +
                      " stale_results=" + std::to_string(net.stale_results);
    wall_from_points(rep, recorder);
    if (resolve_fronts) resolve(rep, recorder, spec.h);
    rep.end = end_state(algorithm);

    const double n = static_cast<double>(rep.results);
    rep.layers["net.io_syscalls_per_result"] =
        static_cast<double>(net.io_syscalls()) / n;
    rep.layers["net.wakeups_per_result"] =
        static_cast<double>(net.wakeups) / n;
    rep.layers["net.frames_per_send"] =
        net.syscalls_send ? static_cast<double>(net.frames_sent) /
                                static_cast<double>(net.syscalls_send)
                          : 0.0;
    rep.layers["net.bytes_per_result"] =
        static_cast<double>(net.bytes_sent + net.bytes_received) / n;
    rep.layers["net.master_sys_share"] =
        rep.cpu_s > 0.0 ? (self1.sys - self0.sys) / rep.cpu_s : 0.0;
    rep.layers["net.latency_mean_ms"] = net.latency_sum_s * 1e3 / n;
    rep.layers["net.reassignments"] = static_cast<double>(net.reassignments);
    rep.layers["net.heartbeat_timeouts"] =
        static_cast<double>(net.heartbeat_timeouts);
    rep.layers["net.stale_results"] = static_cast<double>(net.stale_results);
    rep.layers["net.send_blocked"] = static_cast<double>(net.send_blocked);
    rep.layers["worker.cpu_us_per_result"] =
        (children1.total() - children0.total()) * 1e6 / n;
    return rep;
}

// ------------------------------------------------------------- reporting

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> defs = {
        {"results_per_s", "1/s"},    {"master_cpu_us_per_result", "us"},
        {"time_to_h_s", "s"},        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},     {"success_rate", "fraction"}};
    return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> defs = {
        {"moea.generate_us", "us"},
        {"moea.generate_p99_us", "us"},
        {"moea.ingest_us", "us"},
        {"moea.ingest_p99_us", "us"},
        {"moea.archive_size", "count"},
        {"moea.population_size", "count"},
        {"moea.restarts", "count"},
        {"problems.evaluate_us", "us"},
        {"obs.layer_sum_share", "fraction"},
        {"engine.us_per_result", "us"},
        {"virtual.algorithm_us_per_result", "us"},
        {"des.events_per_result", "count"},
        {"async.master_busy_fraction", "fraction"},
        {"async.queue_wait_mean_s", "s"},
        {"thread.ta_us", "us"},
        {"thread.ta_p99_us", "us"},
        {"thread.tc_us", "us"},
        {"thread.tc_p99_us", "us"},
        {"thread.loop_us_per_result", "us"},
        {"thread.master_idle_fraction", "fraction"},
        {"net.io_syscalls_per_result", "count"},
        {"net.wakeups_per_result", "count"},
        {"net.frames_per_send", "count"},
        {"net.bytes_per_result", "B"},
        {"net.master_sys_share", "fraction"},
        {"net.latency_mean_ms", "ms"},
        {"net.reassignments", "count"},
        {"net.heartbeat_timeouts", "count"},
        {"net.stale_results", "count"},
        {"net.send_blocked", "count"},
        {"worker.cpu_us_per_result", "us"},
        {"metrics.hv_resolve_s", "s"},
        {"metrics.hv_fronts", "count"},
        {"obs.trace_overhead", "fraction"}};
    return defs;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name,
                    std::isfinite(v) ? v : 0.0, defs[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Checks one repetition against the values pinned for its seed. Returns
/// the failure, empty if it passed.
std::string check(const Spec& spec, const Rep& r, const Pin& pin) {
    if (!r.failure.empty()) return r.failure;
    if (r.results != spec.evaluations)
        return "ingested " + std::to_string(r.results) + " results";
    if (!r.end.nondominated) return "archive holds a dominated member";
    if (r.end.digest != pin.digest || r.end.archive != pin.archive ||
        r.end.population != pin.population || r.end.restarts != pin.restarts)
        return "end state differs from the pinned values";
    if (!same_bits(r.virtual_tp, pin.virtual_tp))
        return "virtual T_P differs from the pinned value";
    if (r.crossing &&
        (r.crossing->evaluations != pin.crossing ||
         !same_bits(r.crossing->hypervolume, pin.crossing_hv)))
        return "trajectory crossing differs from the pinned one";
    // Only virtual-paper's trajectory runs on virtual (deterministic) time.
    if (spec.name == "virtual-paper" && r.crossing &&
        !same_bits(r.crossing->time, pin.virtual_tth))
        return "virtual time to h differs from the pinned value";
    if (!std::isfinite(r.time_to_h_s))
        return "no wall-clock stamp at the crossing";
    return {};
}

} // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    args.check_known({"workload", "seed", "seconds", "trace", "smoke"});
    const std::string workload = args.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.get_uint("seed", 1));
    const double seconds = args.get_double("seconds", 10.0);
    const bool trace = args.get_int("trace", 0) != 0;
    const bool is_smoke = args.get_bool("smoke", false);

    const std::vector<Spec> all = specs();
    const auto found =
        std::find_if(all.begin(), all.end(),
                     [&](const Spec& s) { return s.name == workload; });
    if (found == all.end()) {
        std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    const Spec spec = is_smoke ? smoke(*found) : *found;
    using RepFn = Rep (*)(const Spec&, std::uint64_t, bool, bool);
    const std::map<std::string, RepFn> reps_by_name = {
        {"serial-deep", rep_serial},
        {"virtual-paper", rep_virtual},
        {"tcp-fleet", rep_tcp},
        {"thread-window", rep_thread}};
    const RepFn run_rep = reps_by_name.at(spec.name);

    // Every run measures the same pool of seeds, so runs compare like with
    // like and every repetition is checked against pinned values; --seed
    // picks where in the pool the cycle starts. Repetitions cycle through
    // the pool until the time budget is spent — untraced only, or
    // alternating untraced / traced — and cover every seed at least once
    // per kind. A seed's first repetition resolves its fronts (so does
    // every traced one) and so checks the trajectory too.
    const std::size_t k = spec.pool.size();
    const std::size_t first = seed % k;
    const bool alternate = trace && spec.traced_clocks;
    const std::size_t min_reps = alternate ? 2 * k : k;
    const bool has_recorder = spec.name != "thread-window";
    std::vector<bool> resolved(k, false);
    const auto start = Clock::now();
    std::vector<Rep> reps;
    double rss = 0.0;
    while (reps.size() < min_reps || seconds_since(start) < seconds) {
        const std::size_t step = alternate ? reps.size() / 2 : reps.size();
        const std::size_t slot = (first + step) % k;
        const bool traced = alternate && reps.size() % 2 == 1;
        const bool resolve_fronts = has_recorder && (traced || !resolved[slot]);
        try {
            reps.push_back(
                run_rep(spec, spec.pool[slot].seed, traced, resolve_fronts));
        } catch (const std::exception& error) {
            reps.emplace_back();
            reps.back().traced = traced;
            reps.back().failure = std::string("threw: ") + error.what();
        }
        reps.back().slot = slot;
        if (reps.back().crossing) resolved[slot] = true;
        rss = peak_rss_mib();
    }

    std::size_t failed = 0;
    std::vector<bool> printed(k, false);
    for (Rep& r : reps) {
        const Pin& pin = spec.pool[r.slot];
        const auto at = r.wall_at.find(pin.crossing);
        if (at != r.wall_at.end()) r.time_to_h_s = at->second;
        r.failure = check(spec, r, pin);
        if (!r.failure.empty()) ++failed;
        std::fprintf(stderr,
                     "perfbench: %s seed=%llu %s setup=%.4fs wall=%.4fs "
                     "cpu=%.4fs tth=%.4fs archive=%zu pop=%zu restarts=%llu "
                     "digest=%016llx%s%s\n",
                     spec.name.c_str(), static_cast<unsigned long long>(pin.seed),
                     r.traced ? "traced  " : "untraced", r.setup_s, r.wall_s,
                     r.cpu_s, r.time_to_h_s, r.end.archive, r.end.population,
                     static_cast<unsigned long long>(r.end.restarts),
                     static_cast<unsigned long long>(r.end.digest),
                     r.failure.empty() ? "" : " FAILED: ", r.failure.c_str());
        // The observed values in the pin table's syntax, once per seed.
        if (r.crossing && !printed[r.slot]) {
            printed[r.slot] = true;
            std::fprintf(
                stderr,
                "perfbench: pin {%llu, 0x%016llxULL, %zu, %zu, %llu, %llu, "
                "%a, %a, %a}\n",
                static_cast<unsigned long long>(pin.seed),
                static_cast<unsigned long long>(r.end.digest), r.end.archive,
                r.end.population,
                static_cast<unsigned long long>(r.end.restarts),
                static_cast<unsigned long long>(r.crossing->evaluations),
                r.crossing->hypervolume, r.virtual_tp,
                spec.name == "virtual-paper" ? r.crossing->time : 0.0);
        }
    }

    // Seed-dependent figures are medians over the pool of each seed's
    // median, so a seed repeated more often within the budget does not
    // weigh more. Per-layer figures come from the traced repetitions where
    // the run alternates, from every repetition otherwise.
    std::vector<std::map<std::string, std::vector<double>>> by_seed(k);
    std::map<std::string, std::vector<double>> series;
    for (const Rep& r : reps) {
        if (!r.failure.empty()) continue;
        auto& seed_series = by_seed[r.slot];
        if (!r.traced) {
            const double n = static_cast<double>(r.results);
            seed_series["results_per_s"].push_back(n / r.wall_s);
            seed_series["master_cpu_us_per_result"].push_back(r.cpu_s * 1e6 /
                                                              n);
            seed_series["time_to_h_s"].push_back(r.time_to_h_s);
            seed_series["untraced_wall_s"].push_back(r.wall_s);
        } else {
            seed_series["traced_wall_s"].push_back(r.wall_s);
        }
        if (r.traced || !alternate)
            for (const auto& [name, v] : r.layers)
                seed_series[name].push_back(v);
        series["setup_s"].push_back(r.setup_s);
    }
    for (const auto& seed_series : by_seed)
        for (const auto& [name, v] : seed_series)
            series[name].push_back(median(v));
    std::map<std::string, double> values;
    for (const auto& [name, v] : series) values[name] = median(v);
    // End-state counts repeat exactly per seed: report the pool's first.
    for (const Rep& r : reps)
        if (r.slot == 0 && r.failure.empty()) {
            values["moea.archive_size"] = static_cast<double>(r.end.archive);
            values["moea.population_size"] =
                static_cast<double>(r.end.population);
            values["moea.restarts"] = static_cast<double>(r.end.restarts);
            break;
        }
    values["peak_rss_mib"] = rss;
    values["success_rate"] = static_cast<double>(reps.size() - failed) /
                             static_cast<double>(reps.size());
    if (alternate) {
        const double untraced = values["untraced_wall_s"];
        values["obs.trace_overhead"] = values["traced_wall_s"] / untraced - 1.0;
        if (spec.name == "serial-deep")
            values["obs.layer_sum_share"] =
                (values["moea.generate_us"] + values["moea.ingest_us"] +
                 values["problems.evaluate_us"]) /
                (untraced * 1e6 / static_cast<double>(spec.evaluations));
    }

    print_result(failed == 0, reps.size(), failed,
                 trace ? per_layer_metrics() : end_to_end_metrics(), values);
    return 0;
}
