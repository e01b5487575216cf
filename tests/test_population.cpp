#include "moea/population.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <vector>

namespace {

using namespace borg::moea;
using borg::util::Rng;

Solution evaluated(std::vector<double> objectives) {
    Solution s;
    s.variables = {0.0};
    s.set_objectives(objectives);
    return s;
}

TEST(Population, FillsToTargetFirst) {
    Population pop(3);
    Rng rng(1);
    EXPECT_TRUE(pop.inject(evaluated({5.0, 5.0}), rng));
    EXPECT_TRUE(pop.inject(evaluated({6.0, 6.0}), rng));
    EXPECT_TRUE(pop.inject(evaluated({7.0, 7.0}), rng));
    EXPECT_EQ(pop.size(), 3u);
}

TEST(Population, DominatingOffspringReplacesDominated) {
    Population pop(2);
    Rng rng(2);
    pop.inject(evaluated({5.0, 5.0}), rng);
    pop.inject(evaluated({1.0, 1.0}), rng);
    EXPECT_TRUE(pop.inject(evaluated({2.0, 2.0}), rng));
    EXPECT_EQ(pop.size(), 2u);
    // {5,5} must be gone: {2,2} dominates it, not {1,1}.
    bool found_55 = false;
    for (std::size_t i = 0; i < pop.size(); ++i)
        if (pop[i].objectives[0] == 5.0) found_55 = true;
    EXPECT_FALSE(found_55);
}

TEST(Population, DominatedOffspringRejected) {
    Population pop(2);
    Rng rng(3);
    pop.inject(evaluated({1.0, 1.0}), rng);
    pop.inject(evaluated({0.5, 2.0}), rng);
    EXPECT_FALSE(pop.inject(evaluated({2.0, 2.0}), rng));
    EXPECT_EQ(pop.size(), 2u);
}

TEST(Population, NondominatedOffspringReplacesRandom) {
    Population pop(2);
    Rng rng(4);
    pop.inject(evaluated({1.0, 3.0}), rng);
    pop.inject(evaluated({3.0, 1.0}), rng);
    EXPECT_TRUE(pop.inject(evaluated({2.0, 2.0}), rng));
    EXPECT_EQ(pop.size(), 2u);
    bool found_new = false;
    for (std::size_t i = 0; i < pop.size(); ++i)
        if (pop[i].objectives[0] == 2.0) found_new = true;
    EXPECT_TRUE(found_new);
}

TEST(Population, RejectsUnevaluated) {
    Population pop(2);
    Rng rng(5);
    Solution raw({0.5});
    EXPECT_THROW(pop.inject(raw, rng), std::invalid_argument);
}

TEST(Population, TargetResizeDoesNotEvict) {
    Population pop(4);
    Rng rng(6);
    for (int i = 0; i < 4; ++i)
        pop.inject(evaluated({double(i), double(4 - i)}), rng);
    pop.set_target_size(2);
    EXPECT_EQ(pop.size(), 4u);
    EXPECT_EQ(pop.target_size(), 2u);
}

TEST(Population, TournamentPrefersDominant) {
    Population pop(10);
    Rng rng(7);
    // One clearly dominant member among dominated ones.
    pop.inject(evaluated({0.0, 0.0}), rng);
    for (int i = 1; i < 10; ++i)
        pop.inject(evaluated({1.0 + i, 1.0 + i}), rng);
    int winner_best = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const ConstSolutionView w = pop.tournament_select(10, rng);
        if (w.objectives[0] == 0.0) ++winner_best;
    }
    // With tournament size 10 over a population of 10 (with replacement),
    // the dominant member wins whenever drawn; expect a solid majority.
    EXPECT_GT(winner_best, 120);
}

TEST(Population, TournamentSizeOneIsRandom) {
    Population pop(4);
    Rng rng(8);
    for (int i = 0; i < 4; ++i)
        pop.inject(evaluated({double(i), double(4 - i)}), rng);
    // All members nondominated: selection must span several members.
    std::set<double> seen;
    for (int trial = 0; trial < 100; ++trial)
        seen.insert(pop.tournament_select(1, rng).objectives[0]);
    EXPECT_GE(seen.size(), 3u);
}

TEST(Population, EmptyOperationsThrow) {
    Population pop(2);
    Rng rng(9);
    EXPECT_THROW(pop.random_member(rng), std::logic_error);
    EXPECT_THROW(pop.tournament_select(2, rng), std::logic_error);
}

TEST(Population, ZeroTargetRejected) {
    EXPECT_THROW(Population(0), std::invalid_argument);
    Population pop(1);
    EXPECT_THROW(pop.set_target_size(0), std::invalid_argument);
}

TEST(Population, AppendBypassesReplacement) {
    Population pop(1);
    pop.append(evaluated({1.0, 1.0}));
    pop.append(evaluated({2.0, 2.0}));
    EXPECT_EQ(pop.size(), 2u); // append ignores the target
}

// ---------------------------------------------------------------------------
// Differential tests: Population (pair-interleaved mirror, bitmask scan,
// in-place tournaments) against a scalar oracle of the same rules written
// the obvious way — one objective vector per member, compare_constrained
// for every comparison, the same RNG draws. Both sides get the same RNG
// state; every verdict, dominated list, victim and tournament winner must
// match, and both must consume the same draws.
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class OraclePopulation {
public:
    explicit OraclePopulation(std::size_t target) : target_(target) {}

    std::size_t size() const { return rows_.size(); }
    const std::vector<double>& row(std::size_t i) const { return rows_[i]; }
    const std::vector<std::size_t>& dominated() const { return dominated_; }
    std::size_t infeasible() const {
        std::size_t n = 0;
        for (const double v : violation_) n += v > 0.0 ? 1 : 0;
        return n;
    }

    void set_target(std::size_t target) { target_ = target; }
    void clear() {
        rows_.clear();
        violation_.clear();
        dominated_.clear();
    }
    void append(const Solution& s) {
        rows_.push_back(s.objectives);
        violation_.push_back(s.total_violation());
    }

    /// The member index the offspring landed in, or nullopt if rejected.
    std::optional<std::size_t> inject(const Solution& s, Rng& rng) {
        dominated_.clear();
        if (size() < target_) {
            append(s);
            return size() - 1;
        }
        const double violation = s.total_violation();
        bool offspring_dominated = false;
        for (std::size_t i = 0; i < size(); ++i) {
            switch (compare_constrained(s.objectives, violation, rows_[i],
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
        rows_[victim] = s.objectives;
        violation_[victim] = violation;
        return victim;
    }

    /// tournament_pick_index when \p counts is null, else
    /// tournament_pick_freq with (*counts)[i] = member i's selection count.
    std::size_t tournament(std::size_t k, Rng& rng,
                           const std::vector<std::uint32_t>* counts) const {
        if (k == 0) k = 1;
        std::size_t best = static_cast<std::size_t>(rng.below(size()));
        for (std::size_t round = 1; round < k; ++round) {
            const std::size_t idx = static_cast<std::size_t>(rng.below(size()));
            const Dominance d = compare_constrained(
                rows_[idx], violation_[idx], rows_[best], violation_[best]);
            if (d == Dominance::kDominates ||
                (counts != nullptr && d == Dominance::kNondominated &&
                 (*counts)[idx] < (*counts)[best]))
                best = idx;
        }
        return best;
    }

private:
    std::size_t target_;
    std::vector<std::vector<double>> rows_;
    std::vector<double> violation_;
    std::vector<std::size_t> dominated_;
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i]))
            return false;
    return true;
}

/// Drives a Population and its oracle in lockstep.
class Lockstep {
public:
    Lockstep(std::size_t m, std::size_t target, std::uint64_t seed)
        : m_(m), pop_(target), oracle_(target), rng_(seed), data_(seed ^ 77) {}

    Population& pop() { return pop_; }
    OraclePopulation& oracle() { return oracle_; }

    /// Objective values drawn from a small lattice (ties, duplicates and
    /// dominance on every axis) plus NaN, ±inf and ±0.0.
    double value(std::size_t lattice) {
        switch (data_.below(16)) {
        case 0: return kNaN;
        case 1: return kInf;
        case 2: return -kInf;
        case 3: return 0.0;
        case 4: return -0.0;
        default: return static_cast<double>(data_.below(lattice));
        }
    }

    /// A random evaluated solution; \p infeasible_share in [0, 1] of them
    /// violate their constraint. One in eight copies a current member's
    /// objectives exactly (kEqual against it).
    Solution solution(double infeasible_share, std::size_t lattice = 5) {
        Solution s;
        s.variables = {0.0};
        std::vector<double> f(m_);
        if (oracle_.size() > 0 && data_.below(8) == 0) {
            f = oracle_.row(
                static_cast<std::size_t>(data_.below(oracle_.size())));
        } else {
            for (double& v : f) v = value(lattice);
        }
        s.set_objectives(f);
        const bool infeasible = data_.uniform() < infeasible_share;
        s.constraints = {infeasible ? 0.5 * static_cast<double>(
                                              1 + data_.below(4))
                                    : -1.0};
        return s;
    }

    void inject(const Solution& s) {
        Rng a = rng_;
        Rng b = rng_;
        std::uint32_t row = 0xffffffffu;
        const bool accepted = pop_.inject(s, a, &row);
        const std::optional<std::size_t> victim = oracle_.inject(s, b);
        ASSERT_EQ(accepted, victim.has_value()) << "step " << step_;
        const std::span<const std::size_t> dominated = pop_.last_dominated();
        ASSERT_EQ(std::vector<std::size_t>(dominated.begin(), dominated.end()),
                  oracle_.dominated())
            << "step " << step_;
        if (accepted) {
            ASSERT_EQ(row, pop_.member_row(*victim)) << "step " << step_;
            ASSERT_TRUE(same_bits(pop_[*victim].objectives, s.objectives));
        }
        ASSERT_EQ(a(), b()) << "RNG draws diverged at step " << step_;
        ASSERT_EQ(pop_.size(), oracle_.size());
        ASSERT_EQ(pop_.infeasible_members(), oracle_.infeasible());
        rng_ = a;
        ++step_;
    }

    void tournaments() {
        std::vector<std::uint32_t> counts(static_cast<std::size_t>(
            data_.below(pop_.size() + 1)));
        for (std::uint32_t& c : counts)
            c = static_cast<std::uint32_t>(data_.below(3));
        // counts is indexed by pool row and may end short of some rows
        // (they count as 0); the oracle gets the same counts by member.
        std::vector<std::uint32_t> member_counts(pop_.size());
        for (std::size_t i = 0; i < pop_.size(); ++i) {
            const std::uint32_t row = pop_.member_row(i);
            member_counts[i] = row < counts.size() ? counts[row] : 0u;
        }
        for (const std::size_t k : {0u, 1u, 2u, 3u, 8u, 40u}) {
            Rng a = rng_;
            Rng b = rng_;
            ASSERT_EQ(pop_.tournament_pick_index(k, a),
                      oracle_.tournament(k, b, nullptr))
                << "tournament_pick k=" << k << " step " << step_;
            ASSERT_EQ(a(), b());
            a = rng_;
            b = rng_;
            ASSERT_EQ(pop_.tournament_pick_freq(k, a, counts),
                      oracle_.tournament(k, b, &member_counts))
                << "tournament_pick_freq k=" << k << " step " << step_;
            ASSERT_EQ(a(), b());
        }
        rng_();
    }

    void expect_same_members() {
        ASSERT_EQ(pop_.size(), oracle_.size());
        for (std::size_t i = 0; i < pop_.size(); ++i)
            ASSERT_TRUE(same_bits(pop_[i].objectives, oracle_.row(i)))
                << "member " << i;
    }

private:
    std::size_t m_;
    Population pop_;
    OraclePopulation oracle_;
    Rng rng_;  ///< the algorithm's stream, shared by both sides
    Rng data_; ///< test data, never handed to either side
    std::size_t step_ = 0;
};

TEST(PopulationDifferential, ScanAndTournamentsMatchOracleAcrossSizes) {
    for (std::size_t m = 1; m <= 7; ++m) {
        for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 129u}) {
            SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n);
            Lockstep run(m, n == 0 ? 1 : n, 1000 * m + n);
            if (n == 0) {
                Rng rng(1);
                EXPECT_THROW(run.pop().tournament_pick_index(2, rng),
                             std::logic_error);
                EXPECT_THROW(run.pop().tournament_pick_freq(2, rng, {}),
                             std::logic_error);
                ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.0)));
                EXPECT_TRUE(run.pop().last_dominated().empty());
                continue;
            }
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.0)));
            for (int step = 0; step < 300; ++step) {
                ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.0)));
                if (step % 10 == 0) {
                    ASSERT_NO_FATAL_FAILURE(run.tournaments());
                }
            }
            ASSERT_NO_FATAL_FAILURE(run.expect_same_members());
        }
    }
}

TEST(PopulationDifferential, LargePopulationMatchesOracle) {
    // About the size restarts grow the population to on the 10^4-member
    // configuration; a finer lattice gives a realistic dominance mix.
    for (const std::size_t m : {2u, 5u}) {
        SCOPED_TRACE(::testing::Message() << "m=" << m);
        Lockstep run(m, 9001, 42 + m);
        for (std::size_t i = 0; i < 9001; ++i)
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.0, 40)));
        for (int step = 0; step < 200; ++step) {
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.0, 40)));
            if (step % 20 == 0) {
                ASSERT_NO_FATAL_FAILURE(run.tournaments());
            }
        }
        ASSERT_NO_FATAL_FAILURE(run.expect_same_members());
    }
}

TEST(PopulationDifferential, InfeasibleMembersEnterAndLeave) {
    // Infeasible members take the generic path while present; once
    // replacement has pushed the last one out the count is back at 0 and
    // the vectorized path resumes — against the same oracle throughout.
    for (std::size_t m = 1; m <= 7; ++m) {
        SCOPED_TRACE(::testing::Message() << "m=" << m);
        Lockstep run(m, 65, 500 + m);
        for (int i = 0; i < 65; ++i)
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.4)));
        ASSERT_GT(run.pop().infeasible_members(), 0u);
        for (int step = 0; step < 200; ++step) {
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.3)));
            if (step % 10 == 0) {
                ASSERT_NO_FATAL_FAILURE(run.tournaments());
            }
        }
        int steps = 0;
        while (run.pop().infeasible_members() > 0 && steps++ < 20000) {
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.0)));
        }
        ASSERT_EQ(run.pop().infeasible_members(), 0u);
        for (int step = 0; step < 200; ++step) {
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.0)));
            if (step % 10 == 0) {
                ASSERT_NO_FATAL_FAILURE(run.tournaments());
            }
        }
        ASSERT_NO_FATAL_FAILURE(run.expect_same_members());
    }
}

TEST(PopulationDifferential, ClearAppendAndRestoreMatchOracle) {
    for (std::size_t m = 1; m <= 7; ++m) {
        SCOPED_TRACE(::testing::Message() << "m=" << m);
        Lockstep run(m, 64, 900 + m);
        for (int step = 0; step < 200; ++step)
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.1)));

        // The restart path: clear, refill by append (odd count, some
        // infeasible), resize the target, carry on injecting.
        run.pop().clear();
        run.oracle().clear();
        EXPECT_EQ(run.pop().infeasible_members(), 0u);
        for (int i = 0; i < 37; ++i) {
            const Solution s = run.solution(0.2);
            run.pop().append(s);
            run.oracle().append(s);
        }
        ASSERT_EQ(run.pop().infeasible_members(), run.oracle().infeasible());
        run.pop().set_target_size(40);
        run.oracle().set_target(40);
        for (int step = 0; step < 200; ++step) {
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.1)));
            if (step % 10 == 0) {
                ASSERT_NO_FATAL_FAILURE(run.tournaments());
            }
        }
        ASSERT_NO_FATAL_FAILURE(run.expect_same_members());

        // Checkpoint restore replaces the mirror wholesale.
        const std::vector<Solution> members = run.pop().materialize_members();
        run.pop().restore(members, 33);
        run.oracle().clear();
        run.oracle().set_target(33);
        for (const Solution& s : members) run.oracle().append(s);
        ASSERT_EQ(run.pop().infeasible_members(), run.oracle().infeasible());
        for (int step = 0; step < 200; ++step) {
            ASSERT_NO_FATAL_FAILURE(run.inject(run.solution(0.1)));
            if (step % 10 == 0) {
                ASSERT_NO_FATAL_FAILURE(run.tournaments());
            }
        }
        ASSERT_NO_FATAL_FAILURE(run.expect_same_members());
    }
}

} // namespace
