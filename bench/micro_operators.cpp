/// Variation-operator benchmark and scalar-vs-batch agreement gate.
///
/// Offspring generation is the second component of the master's
/// per-result overhead T_A (after archive insertion), so the batched
/// arena path — apply_into()/produce_batch() writing into SolutionPool
/// rows with reused scratch and cached bounds — directly moves the
/// paper's saturation bound P_UB = T_F / (2·T_C + T_A). This driver
/// times each ensemble operator (SBX+PM, DE+PM, PCX+PM, SPX+PM, UNDX+PM,
/// UM) on the paper's two experiment problems and pins the two paths
/// against each other: the batch path must produce bit-identical
/// offspring from an identical RNG stream, or the exit code is non-zero.
///
/// ci.sh runs `--quick` (DTLZ2_5 only, fewer samples) as a smoke gate:
/// agreement plus batch-faster-than-scalar per operator. The full grid
/// additionally times the end-to-end master hot loop — generation +
/// ingestion per offspring, evaluation excluded — on the paper's two
/// problems at population 100 (ε = 0.25) and at the 10^4-member archive
/// configuration (ε = 0.06), through both the arena handle path and the
/// allocation-per-offspring value API (informational), and gates the T_A
/// headline: the population-100 median speedup over the pre-arena seed
/// must be >= 2x, and each 10^4-member cell must individually be >= 2x
/// over the seed.
/// Both modes also run the injection-scan cell: the population of the
/// 10^4-member configuration (ε = 0.06, after 50k offspring)
/// takes a stream of the run's own next offspring through
/// Population::inject (the pair-mirror bitmask kernel) and through a
/// scalar oracle kept in this file (row-major mirror, compare_constrained
/// per member, the same replacement draws). Every verdict — accepted or
/// not, the dominated list in order, the victim — must agree, or the exit
/// code is 2; the kernel must also not be slower. Reported as ns per
/// member scanned.
/// The full grid produces the checked-in BENCH_operators.json
/// (regenerate from a Release build with
/// `micro_operators --json BENCH_operators.json`).
///
/// Flags: --batch 32  --samples 5  --seed 123  --json FILE  --quick

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "moea/borg.hpp"
#include "moea/operators.hpp"
#include "moea/population.hpp"
#include "problems/problem.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;
using namespace borg::moea;

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

struct Setup {
    std::unique_ptr<problems::Problem> problem;
    std::vector<std::unique_ptr<Variation>> ops;
    std::vector<std::vector<double>> parents;

    explicit Setup(const std::string& name, std::uint64_t seed)
        : problem(problems::make_problem(name)),
          ops(make_borg_operators(*problem)) {
        util::Rng rng(seed);
        for (int i = 0; i < 10; ++i) {
            std::vector<double> x(problem->num_variables());
            for (std::size_t j = 0; j < x.size(); ++j)
                x[j] = rng.uniform(problem->lower_bound(j),
                                   problem->upper_bound(j));
            parents.push_back(std::move(x));
        }
    }

    ParentView view(std::size_t arity) const {
        ParentView v;
        for (std::size_t i = 0; i < arity; ++i) v.emplace_back(parents[i]);
        return v;
    }
};

/// Both paths on lockstep RNG streams must emit bit-identical offspring —
/// one extra or missing draw desyncs every later trial, so this also pins
/// the draw count. Returns false on any divergence.
bool agreement_gate(Setup& setup, std::size_t batch, std::uint64_t seed) {
    for (auto& op : setup.ops) {
        const ParentView parents = setup.view(op->arity());
        const std::size_t n = setup.problem->num_variables();
        util::Rng scalar_rng(seed), arena_rng(seed), batch_rng(seed);
        std::vector<double> row(n);
        std::vector<double> rows(batch * n);
        for (std::size_t trial = 0; trial < 200; ++trial) {
            const std::vector<double> oracle = op->apply(parents, scalar_rng);
            op->apply_into(parents, arena_rng, row);
            if (oracle != row) {
                std::cerr << "FAIL: " << op->name() << " apply_into diverged"
                          << " from apply at trial " << trial << "\n";
                return false;
            }
        }
        // produce_batch against a scalar replay of the same stream.
        util::Rng oracle_rng(seed);
        for (std::size_t trial = 0; trial < 200; trial += batch) {
            const std::size_t count =
                std::min(batch, std::size_t{200} - trial);
            op->produce_batch(parents, batch_rng, count,
                              std::span<double>(rows.data(), count * n));
            for (std::size_t i = 0; i < count; ++i) {
                const std::vector<double> oracle =
                    op->apply(parents, oracle_rng);
                if (!std::equal(oracle.begin(), oracle.end(),
                                rows.begin() + i * n)) {
                    std::cerr << "FAIL: " << op->name()
                              << " produce_batch diverged at offspring "
                              << trial + i << "\n";
                    return false;
                }
            }
        }
    }
    return true;
}

/// Median ns/offspring over \p samples; the inner cycle repeats until it
/// runs >= 20 ms so clock quantization stays negligible. Both paths replay
/// the same RNG stream (reseeded per sample), so they do identical
/// numerical work — the difference is purely allocation and dispatch.
template <typename Body>
double median_ns_per_offspring(std::size_t samples, std::uint64_t seed,
                               std::size_t offspring_per_cycle, Body&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    {
        util::Rng rng(seed);
        body(rng);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double once = std::max(1.0, elapsed_ns(t0, t1));
    constexpr double kMinSampleNs = 2e7;
    const auto reps = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(kMinSampleNs / once)));
    std::vector<double> medians;
    for (std::size_t s = 0; s < samples; ++s) {
        util::Rng rng(seed);
        const auto s0 = std::chrono::steady_clock::now();
        for (std::uint64_t r = 0; r < reps; ++r) body(rng);
        const auto s1 = std::chrono::steady_clock::now();
        medians.push_back(
            elapsed_ns(s0, s1) /
            static_cast<double>(reps * offspring_per_cycle));
    }
    std::sort(medians.begin(), medians.end());
    return medians[medians.size() / 2];
}

struct OpReport {
    std::string problem;
    std::string op;
    double scalar_ns = 0.0;
    double batch_ns = 0.0;
    double speedup = 0.0;
};

/// One (problem, ε) cell of the end-to-end master hot loop: median-free
/// single-pass timing with the exact protocol the seed baseline was
/// measured with — 20k warm-up offspring, 30k timed, per-offspring
/// generation + ingestion accumulated and evaluation excluded.
struct LoopCell {
    std::string problem;
    double epsilon = 0.0;
    std::size_t archive = 0;
    double arena_ns = 0.0; ///< handle path: next_offspring_handle/receive_handle
    double value_ns = 0.0; ///< value path: next_offspring/receive (0 = skipped)
    double seed_ns = 0.0;  ///< pre-arena seed, same protocol (see kSeedBaseline)
    double speedup_vs_seed = 0.0;
};

/// Steady-state master loop ns/offspring measured at the pre-arena seed
/// (commit 36199b5, the tree before the SolutionPool refactor) on this
/// machine with the identical protocol: BorgParams::for_problem(problem,
/// ε), initial_population_size = 100, seed 42, 20k warm-up + 30k timed,
/// evaluation excluded. These anchor the speedup_vs_seed column; re-measure
/// them when moving BENCH_operators.json to new hardware.
struct SeedBaseline {
    const char* problem;
    double epsilon;
    double ns_per_offspring;
};
constexpr SeedBaseline kSeedBaseline[] = {
    {"dtlz2_5", 0.25, 5132.0},
    {"uf11", 0.25, 8066.0},
    {"dtlz2_5", 0.06, 235647.0},
    {"uf11", 0.06, 180073.0},
};

double seed_baseline_ns(const std::string& problem, double epsilon) {
    for (const SeedBaseline& b : kSeedBaseline)
        if (problem == b.problem && epsilon == b.epsilon)
            return b.ns_per_offspring;
    return 0.0;
}

constexpr int kLoopWarmup = 20000;
constexpr int kLoopTimed = 30000;

double time_arena_loop(problems::Problem& problem, const BorgParams& params,
                       std::size_t& archive_out) {
    BorgMoea alg(problem, params, 42);
    for (int i = 0; i < kLoopWarmup; ++i) {
        const SolutionHandle h = alg.next_offspring_handle();
        evaluate(problem, alg.pool(), h);
        alg.receive_handle(h);
    }
    double ns = 0.0;
    for (int i = 0; i < kLoopTimed; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const SolutionHandle h = alg.next_offspring_handle();
        const auto t1 = std::chrono::steady_clock::now();
        evaluate(problem, alg.pool(), h);
        const auto t2 = std::chrono::steady_clock::now();
        alg.receive_handle(h);
        const auto t3 = std::chrono::steady_clock::now();
        ns += elapsed_ns(t0, t1) + elapsed_ns(t2, t3);
    }
    archive_out = alg.archive().size();
    return ns / kLoopTimed;
}

double time_value_loop(problems::Problem& problem, const BorgParams& params) {
    BorgMoea alg(problem, params, 42);
    for (int i = 0; i < kLoopWarmup; ++i) {
        Solution s = alg.next_offspring();
        evaluate(problem, s);
        alg.receive(std::move(s));
    }
    double ns = 0.0;
    for (int i = 0; i < kLoopTimed; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        Solution s = alg.next_offspring();
        const auto t1 = std::chrono::steady_clock::now();
        evaluate(problem, s);
        const auto t2 = std::chrono::steady_clock::now();
        alg.receive(std::move(s));
        const auto t3 = std::chrono::steady_clock::now();
        ns += elapsed_ns(t0, t1) + elapsed_ns(t2, t3);
    }
    return ns / kLoopTimed;
}

/// The value path allocates per offspring; measuring it at the 10^4-member
/// configuration would double an already long run for a comparison the
/// gate only needs at population 100, so measure_value is false there.
LoopCell master_loop_cell(const std::string& name, double epsilon,
                          bool measure_value) {
    LoopCell cell;
    cell.problem = name;
    cell.epsilon = epsilon;
    cell.seed_ns = seed_baseline_ns(name, epsilon);

    const auto problem = problems::make_problem(name);
    BorgParams params = BorgParams::for_problem(*problem, epsilon);
    params.initial_population_size = 100;
    cell.arena_ns = time_arena_loop(*problem, params, cell.archive);
    if (measure_value) cell.value_ns = time_value_loop(*problem, params);
    if (cell.seed_ns > 0.0 && cell.arena_ns > 0.0)
        cell.speedup_vs_seed = cell.seed_ns / cell.arena_ns;
    return cell;
}

/// The population's injection rule written the obvious way: objectives in
/// a row-major matrix, compare_constrained per member, the same RNG draws
/// as Population::inject. Reference for the scan cell; not for production.
class ScanOracle {
public:
    ScanOracle(const std::vector<Solution>& members, std::size_t target)
        : target_(target) {
        for (const Solution& s : members) append(s);
    }

    std::size_t size() const noexcept { return violation_.size(); }
    const std::vector<std::size_t>& dominated() const noexcept {
        return dominated_;
    }

    /// The member index the offspring landed in, or nullopt if rejected.
    std::optional<std::size_t> inject(const Solution& offspring,
                                      util::Rng& rng) {
        dominated_.clear();
        if (size() < target_) {
            append(offspring);
            return size() - 1;
        }
        const std::size_t m = offspring.objectives.size();
        const double violation = offspring.total_violation();
        bool offspring_dominated = false;
        for (std::size_t i = 0; i < size(); ++i) {
            switch (compare_constrained(offspring.objectives, violation,
                                        {rows_.data() + i * m, m},
                                        violation_[i])) {
            case Dominance::kDominates: dominated_.push_back(i); break;
            case Dominance::kDominatedBy: offspring_dominated = true; break;
            default: break;
            }
        }
        if (dominated_.empty() && offspring_dominated) return std::nullopt;
        const std::size_t victim =
            dominated_.empty()
                ? static_cast<std::size_t>(rng.below(size()))
                : dominated_[static_cast<std::size_t>(
                      rng.below(dominated_.size()))];
        std::copy(offspring.objectives.begin(), offspring.objectives.end(),
                  rows_.begin() + static_cast<std::ptrdiff_t>(victim * m));
        violation_[victim] = violation;
        return victim;
    }

private:
    void append(const Solution& s) {
        rows_.insert(rows_.end(), s.objectives.begin(), s.objectives.end());
        violation_.push_back(s.total_violation());
    }

    std::size_t target_;
    std::vector<double> rows_;
    std::vector<double> violation_;
    std::vector<std::size_t> dominated_;
};

struct ScanCell {
    std::string problem;
    std::size_t members = 0;
    std::size_t offspring = 0;
    double oracle_ns = 0.0; ///< ns per member scanned, scalar oracle
    double kernel_ns = 0.0; ///< ns per member scanned, Population::inject
    double speedup = 0.0;
};

constexpr int kScanOffspring = 2000;

/// The injection-scan cell on \p name's 10^4-member configuration. Returns
/// false (and reports the first divergence) unless Population::inject and
/// the oracle agree on every verdict of the stream.
bool injection_scan_cell(const std::string& name, std::size_t samples,
                         std::uint64_t seed, ScanCell& cell) {
    const auto problem = problems::make_problem(name);
    BorgParams params = BorgParams::for_problem(*problem, 0.06);
    params.initial_population_size = 100;
    BorgMoea alg(*problem, params, 42);
    for (int i = 0; i < kLoopWarmup + kLoopTimed; ++i) {
        const SolutionHandle h = alg.next_offspring_handle();
        evaluate(*problem, alg.pool(), h);
        alg.receive_handle(h);
    }
    // The target is pinned at the snapshot's size so every offspring of
    // the stream pays the full scan (the run's own target may still lie
    // above its population, which would make early offspring appends).
    const std::vector<Solution> members =
        alg.population().materialize_members();
    const std::size_t target = members.size();
    std::vector<Solution> stream;
    for (int i = 0; i < kScanOffspring; ++i) {
        const SolutionHandle h = alg.next_offspring_handle();
        evaluate(*problem, alg.pool(), h);
        stream.push_back(alg.pool().materialize(h));
        alg.receive_handle(h);
    }
    cell.problem = name;
    cell.members = members.size();
    cell.offspring = stream.size();

    // Agreement: same RNG state on both sides, verdict by verdict.
    std::size_t scanned = 0; // members compared over the stream
    {
        Population population(target);
        population.restore(members, target);
        ScanOracle oracle(members, target);
        util::Rng kernel_rng(seed), oracle_rng(seed);
        for (std::size_t k = 0; k < stream.size(); ++k) {
            scanned += oracle.size();
            std::uint32_t row = 0;
            const bool accepted = population.inject(stream[k], kernel_rng,
                                                    &row);
            const std::optional<std::size_t> victim =
                oracle.inject(stream[k], oracle_rng);
            const std::span<const std::size_t> dominated =
                population.last_dominated();
            if (accepted != victim.has_value() ||
                !std::equal(dominated.begin(), dominated.end(),
                            oracle.dominated().begin(),
                            oracle.dominated().end()) ||
                (accepted && row != population.member_row(*victim))) {
                std::cerr << "FAIL: " << name << " injection scan diverged"
                          << " from the oracle at offspring " << k << "\n";
                return false;
            }
        }
    }

    // Timing: every sample replays the whole stream from the snapshot.
    const auto per_member = [&](auto&& replay) {
        std::vector<double> ns;
        for (std::size_t s = 0; s < samples; ++s) {
            util::Rng rng(seed);
            ns.push_back(replay(rng) /
                         static_cast<double>(std::max<std::size_t>(1, scanned)));
        }
        std::sort(ns.begin(), ns.end());
        return ns[ns.size() / 2];
    };
    std::size_t sink = 0;
    cell.oracle_ns = per_member([&](util::Rng& rng) {
        ScanOracle oracle(members, target);
        const auto t0 = std::chrono::steady_clock::now();
        for (const Solution& s : stream)
            sink += oracle.inject(s, rng).value_or(0);
        return elapsed_ns(t0, std::chrono::steady_clock::now());
    });
    cell.kernel_ns = per_member([&](util::Rng& rng) {
        Population population(target);
        population.restore(members, target);
        const auto t0 = std::chrono::steady_clock::now();
        for (const Solution& s : stream) sink += population.inject(s, rng);
        return elapsed_ns(t0, std::chrono::steady_clock::now());
    });
    if (sink == 0) std::cerr << "no offspring was ever injected?\n";
    cell.speedup = cell.oracle_ns / cell.kernel_ns;
    return true;
}

} // namespace

int main(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known({"batch", "samples", "seed", "json", "quick"});
    const auto batch = static_cast<std::size_t>(args.get_uint("batch", 32));
    auto samples = static_cast<std::size_t>(args.get_uint("samples", 5));
    const auto seed = static_cast<std::uint64_t>(args.get_uint("seed", 123));
    const std::string json_path = args.get("json", "");
    const bool quick = args.get_bool("quick");
    std::vector<std::string> problem_names{"dtlz2_5", "uf11"};
    if (quick) {
        problem_names = {"dtlz2_5"};
        samples = std::min<std::size_t>(samples, 3);
    }

    std::cout << "operator ensemble: scalar apply() vs batched "
                 "produce_batch(" << batch << "), median of " << samples
              << " samples\n";
    util::Table table({"problem", "operator", "scalar ns", "batch ns",
                       "speedup"});
    std::vector<OpReport> reports;
    int rc = 0;
    double sink = 0.0;
    for (const std::string& name : problem_names) {
        Setup setup(name, seed);
        if (!agreement_gate(setup, batch, seed ^ 0xa5a5a5a5ull)) return 2;

        const std::size_t n = setup.problem->num_variables();
        for (auto& op : setup.ops) {
            const ParentView parents = setup.view(op->arity());
            OpReport report;
            report.problem = name;
            report.op = op->name();

            report.scalar_ns = median_ns_per_offspring(
                samples, seed + 1, batch, [&](util::Rng& rng) {
                    for (std::size_t i = 0; i < batch; ++i) {
                        const std::vector<double> child =
                            op->apply(parents, rng);
                        sink += child[0];
                    }
                });
            std::vector<double> rows(batch * n);
            report.batch_ns = median_ns_per_offspring(
                samples, seed + 1, batch, [&](util::Rng& rng) {
                    op->produce_batch(parents, rng, batch, rows);
                    sink += rows[0];
                });
            report.speedup = report.scalar_ns / report.batch_ns;
            reports.push_back(report);

            char scalar_buf[32], batch_buf[32], speedup_buf[32];
            std::snprintf(scalar_buf, sizeof(scalar_buf), "%.0f",
                          report.scalar_ns);
            std::snprintf(batch_buf, sizeof(batch_buf), "%.0f",
                          report.batch_ns);
            std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                          report.speedup);
            table.add_row({name, report.op, scalar_buf, batch_buf,
                           speedup_buf});

            // Per-operator smoke gate: the batched path must not lose.
            if (report.speedup <= 1.0) {
                std::cerr << "FAIL: " << name << "/" << report.op
                          << " batch path slower than scalar ("
                          << speedup_buf << ")\n";
                rc = 1;
            }
        }
    }
    table.print(std::cout);
    if (sink == 0.0) std::cerr << "no offspring was ever produced?\n";
    std::cout << "agreement: apply / apply_into / produce_batch "
                 "bit-identical on every operator\n";

    std::cout << "\ninjection scan: ns per member scanned, " << kScanOffspring
              << " offspring into the eps 0.06 population after "
              << kLoopWarmup + kLoopTimed << " offspring, median of " << samples
              << " samples\n";
    util::Table scan_table({"problem", "members", "oracle ns", "kernel ns",
                            "speedup"});
    std::vector<ScanCell> scan_cells;
    for (const std::string& name : problem_names) {
        ScanCell cell;
        if (!injection_scan_cell(name, samples, seed, cell)) return 2;
        char oracle_buf[32], kernel_buf[32], speedup_buf[32];
        std::snprintf(oracle_buf, sizeof(oracle_buf), "%.2f", cell.oracle_ns);
        std::snprintf(kernel_buf, sizeof(kernel_buf), "%.2f", cell.kernel_ns);
        std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                      cell.speedup);
        scan_table.add_row({name, std::to_string(cell.members), oracle_buf,
                            kernel_buf, speedup_buf});
        if (cell.speedup <= 1.0) {
            std::cerr << "FAIL: " << name << " injection scan kernel slower"
                      << " than the scalar oracle (" << speedup_buf << ")\n";
            rc = 1;
        }
        scan_cells.push_back(cell);
    }
    scan_table.print(std::cout);
    std::cout << "agreement: Population::inject and the scalar oracle agree"
                 " on every verdict, dominated list and victim\n";

    // Full grid: the end-to-end master hot loop (the T_A headline). The
    // population-100 cells also time the allocation-per-offspring value
    // API as an in-binary reference; the 10^4-member cells compare against
    // the recorded seed baseline only.
    std::vector<LoopCell> loop_cells;
    if (!quick) {
        std::cout << "\nmaster hot loop: generation + ingestion ns/offspring"
                     " (evaluation excluded), 20k warm-up + 30k timed\n";
        util::Table loop_table({"problem", "eps", "archive", "value ns",
                                "arena ns", "seed ns", "vs seed"});
        for (const double eps : {0.25, 0.06})
            for (const char* name : {"dtlz2_5", "uf11"})
                loop_cells.push_back(
                    master_loop_cell(name, eps, /*measure_value=*/eps == 0.25));
        std::vector<double> pop100_speedups;
        for (const LoopCell& cell : loop_cells) {
            char eps_buf[16], value_buf[32], arena_buf[32], seed_buf[32],
                speed_buf[32];
            std::snprintf(eps_buf, sizeof(eps_buf), "%.2f", cell.epsilon);
            std::snprintf(value_buf, sizeof(value_buf), "%.0f",
                          cell.value_ns);
            std::snprintf(arena_buf, sizeof(arena_buf), "%.0f",
                          cell.arena_ns);
            std::snprintf(seed_buf, sizeof(seed_buf), "%.0f", cell.seed_ns);
            std::snprintf(speed_buf, sizeof(speed_buf), "%.2fx",
                          cell.speedup_vs_seed);
            loop_table.add_row({cell.problem, eps_buf,
                                std::to_string(cell.archive),
                                cell.value_ns > 0.0 ? value_buf : "-",
                                arena_buf, seed_buf, speed_buf});

            if (cell.value_ns > 0.0) {
                pop100_speedups.push_back(cell.speedup_vs_seed);
            } else if (cell.speedup_vs_seed < 2.0) {
                // Gate: each 10^4-member cell individually >= 2x vs seed.
                std::cerr << "FAIL: " << cell.problem << " eps " << eps_buf
                          << ": speedup vs seed " << speed_buf << " < 2x\n";
                rc = 1;
            }
        }
        loop_table.print(std::cout);
        // The value_ns column is informational only: the value API is now a
        // thin wrapper over the same arena engine, so its delta (one
        // materialize + store per offspring) sits inside single-run timer
        // noise on a shared machine and is not a stable gate.
        // Gate: population-100 median speedup vs seed >= 2x (the
        // acceptance-criterion headline; with two problems the median is
        // their midpoint).
        std::sort(pop100_speedups.begin(), pop100_speedups.end());
        const double median =
            pop100_speedups.empty()
                ? 0.0
                : pop100_speedups.size() % 2 == 1
                    ? pop100_speedups[pop100_speedups.size() / 2]
                    : 0.5 * (pop100_speedups[pop100_speedups.size() / 2 - 1] +
                             pop100_speedups[pop100_speedups.size() / 2]);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fx", median);
        if (median < 2.0) {
            std::cerr << "FAIL: population-100 median speedup vs seed " << buf
                      << " < 2x\n";
            rc = 1;
        } else {
            std::cout << "gate: population-100 median speedup vs seed " << buf
                      << "\n";
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write " << json_path << "\n";
            return 2;
        }
        out << "{\n  \"benchmark\": \"micro_operators\",\n"
            << "  \"batch\": " << batch << ",\n"
            << "  \"samples\": " << samples << ",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const OpReport& r = reports[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "    {\"problem\": \"%s\", \"operator\": \"%s\", "
                          "\"scalar_ns\": %.1f, \"batch_ns\": %.1f, "
                          "\"speedup\": %.2f}%s\n",
                          r.problem.c_str(), r.op.c_str(), r.scalar_ns,
                          r.batch_ns, r.speedup,
                          i + 1 < reports.size() ? "," : "");
            out << buf;
        }
        out << "  ],\n  \"injection_scan\": [\n";
        for (std::size_t i = 0; i < scan_cells.size(); ++i) {
            const ScanCell& c = scan_cells[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "    {\"problem\": \"%s\", \"members\": %zu, "
                          "\"offspring\": %zu, \"oracle_ns_per_member\": "
                          "%.2f, \"kernel_ns_per_member\": %.2f, "
                          "\"speedup\": %.2f}%s\n",
                          c.problem.c_str(), c.members, c.offspring,
                          c.oracle_ns, c.kernel_ns, c.speedup,
                          i + 1 < scan_cells.size() ? "," : "");
            out << buf;
        }
        out << "  ],\n  \"master_loop\": [\n";
        for (std::size_t i = 0; i < loop_cells.size(); ++i) {
            const LoopCell& c = loop_cells[i];
            char buf[320];
            std::snprintf(
                buf, sizeof(buf),
                "    {\"problem\": \"%s\", \"epsilon\": %.2f, "
                "\"archive\": %zu, \"value_ns\": %.0f, \"arena_ns\": %.0f, "
                "\"seed_ns\": %.0f, \"speedup_vs_seed\": %.2f}%s\n",
                c.problem.c_str(), c.epsilon, c.archive, c.value_ns,
                c.arena_ns, c.seed_ns, c.speedup_vs_seed,
                i + 1 < loop_cells.size() ? "," : "");
            out << buf;
        }
        out << "  ],\n"
            << "  \"seed_baseline\": \"commit 36199b5 (pre-arena), same "
               "machine and protocol: 20k warm-up + 30k timed offspring, "
               "seed 42, initial population 100, evaluation excluded\"\n";
        out << "}\n";
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}
