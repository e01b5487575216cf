#ifndef BORG_MOEA_POPULATION_HPP
#define BORG_MOEA_POPULATION_HPP

/// \file population.hpp
/// Borg's steady-state population with the ε-MOEA replacement rule.
///
/// The population has a target size that the restart machinery adapts at
/// runtime (γ times the archive size). A newly evaluated offspring is
/// injected one at a time:
///  * while the population is below target size it is simply appended;
///  * if it dominates one or more members, it replaces one of them at
///    random (this takes precedence even when some other member dominates
///    the offspring, keeping the rule independent of scan order);
///  * else, if it is dominated by any member, it is discarded;
///  * otherwise (mutually nondominated) it replaces a random member.
/// This keeps the population size constant without generational sorting —
/// the property that makes the algorithm natural to run asynchronously.
///
/// Storage: members live in a SolutionPool arena (DESIGN.md §15) — the
/// population owns one handle per member, and the steady-state injection
/// scan and tournaments read a dense, pair-interleaved objective mirror
/// instead of pointer-chasing per-member heap vectors. A population can
/// either share the algorithm's pool (BorgMoea passes its own) or lazily
/// create a private one sized from the first solution it sees (standalone
/// construction in tests).

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "moea/dominance.hpp"
#include "moea/solution.hpp"
#include "moea/solution_pool.hpp"
#include "util/rng.hpp"

namespace borg::moea {

class Population {
public:
    /// Standalone population with a private, lazily created pool.
    explicit Population(std::size_t target_size);
    /// Population storing its members in \p pool (must outlive it).
    Population(SolutionPool& pool, std::size_t target_size);

    Population(const Population&) = delete;
    Population& operator=(const Population&) = delete;

    ~Population();

    std::size_t size() const noexcept { return members_.size(); }
    bool empty() const noexcept { return members_.empty(); }

    std::size_t target_size() const noexcept { return target_size_; }
    /// Changes the target size; a shrink does not evict members (the
    /// steady-state replacement naturally converges back to target).
    void set_target_size(std::size_t target);

    ConstSolutionView operator[](std::size_t i) const {
        return pool_->view(members_[i]);
    }

    /// Steady-state injection per the rule above (accepts `Solution` or a
    /// pool view; the population copies the payload either way). Returns
    /// true if the offspring entered the population. When \p member_row is
    /// non-null it receives the pool row the offspring's copy landed in
    /// (append or replacement victim); it is left untouched on rejection.
    /// The out-param adds no RNG draws — draw order is identical with or
    /// without it.
    bool inject(ConstSolutionView offspring, util::Rng& rng,
                std::uint32_t* member_row = nullptr);

    /// Unconditional append (used for restart injection, which rebuilds the
    /// population from the archive).
    void append(ConstSolutionView solution);

    void clear() noexcept;

    /// Uniform random member. Population must be non-empty.
    ConstSolutionView random_member(util::Rng& rng) const;

    /// Tournament of \p tournament_size uniformly drawn members (with
    /// replacement), decided by Pareto dominance; among mutually
    /// nondominated contestants the earliest drawn wins (which, with random
    /// draws, is an unbiased choice). Population must be non-empty.
    ConstSolutionView tournament_select(std::size_t tournament_size,
                                        util::Rng& rng) const;

    /// Like tournament_select but returns the member index instead of a
    /// view (same RNG draws, same winner). Lets callers recover the pool
    /// row of the chosen parent via member_row().
    std::size_t tournament_pick_index(std::size_t tournament_size,
                                      util::Rng& rng) const;

    /// Frequency-aware tournament (Harada's frequency-based parent
    /// selection, arXiv:2107.12053): dominance still decides first, but
    /// among mutually nondominated contestants the one selected FEWER
    /// times before wins (earliest drawn wins exact ties). \p
    /// counts_by_row maps pool row -> selection count; rows at or past its
    /// end count as 0. Draws tournament_size member indices — a different
    /// draw sequence from tournament_pick, used only by the freq policy.
    std::size_t tournament_pick_freq(
        std::size_t tournament_size, util::Rng& rng,
        std::span<const std::uint32_t> counts_by_row) const;

    /// Members the most recent inject() found the offspring dominates, in
    /// index order (empty after an append-phase inject). The replacement
    /// victim is drawn uniformly from this list.
    std::span<const std::size_t> last_dominated() const noexcept {
        return dominated_scratch_;
    }

    /// Members whose total constraint violation is positive. While it is 0
    /// and the offspring is feasible, dominance is plain Pareto dominance
    /// and the injection scan and tournaments take the vectorized path.
    std::size_t infeasible_members() const noexcept {
        return infeasible_members_;
    }

    /// Pool row (arena slot index) holding member \p i's payload.
    std::uint32_t member_row(std::size_t i) const noexcept {
        return members_[i].index;
    }

    /// Owning copies of all members, in order (checkpoint/test support).
    std::vector<Solution> materialize_members() const;

    /// Checkpoint restore: replaces contents and target wholesale.
    void restore(const std::vector<Solution>& members, std::size_t target);

private:
    SolutionPool& pool_for(ConstSolutionView exemplar);
    std::size_t tournament_pick(std::size_t tournament_size,
                                util::Rng& rng) const;
    /// compare_constrained(member idx, incumbent); reads the member in
    /// place while every member is feasible (the incumbent is one of them).
    Dominance challenge(std::size_t idx, std::span<const double> incumbent,
                        double incumbent_violation) const;
    /// Refreshes the dense row mirrored from members_[i]'s payload.
    void cache_member(std::size_t i);
    /// Offset of member i's first objective in objective_pairs_; its
    /// num_objectives_ values follow at stride 2.
    std::size_t mirror_offset(std::size_t i) const noexcept {
        return i / 2 * 2 * num_objectives_ + i % 2;
    }
    const double* mirror_row(std::size_t i) const noexcept {
        return objective_pairs_.data() + mirror_offset(i);
    }

    std::size_t target_size_;
    SolutionPool* pool_ = nullptr;          ///< shared (or = owned_pool_)
    std::unique_ptr<SolutionPool> owned_pool_;
    std::vector<SolutionHandle> members_;
    std::vector<std::size_t> dominated_scratch_; ///< inject() reuse

    // Dense mirror of each member's objectives + precomputed violation,
    // refreshed whenever a member changes. The injection scan and
    // tournaments read ONLY these flat arrays: at restart-grown population
    // sizes (γ·|archive|, tens of thousands) the per-member handle checks
    // and strided block reads of pool_->view() would otherwise dominate
    // the master's T_A. Members 2k and 2k+1 share one block of
    // 2·num_objectives_ doubles, objective-major ({f0(2k), f0(2k+1), f1(2k),
    // f1(2k+1), ...}), so one 128-bit load carries an objective of both
    // rows; an odd-sized population pads its last block by one row, which
    // the scan masks. Same values, same comparisons — runs don't change.
    std::size_t num_objectives_ = 0;
    std::vector<double> objective_pairs_;
    std::vector<double> cached_violation_;
    std::size_t infeasible_members_ = 0; ///< count of violation > 0 rows
};

} // namespace borg::moea

#endif
