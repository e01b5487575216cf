#include "moea/population.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>

namespace borg::moea {

namespace {

/// compare_pareto(challenger, incumbent) with the challenger read in place
/// from the mirror (stride 2) and the incumbent held contiguously. The
/// flag-OR compare without early exit yields the same Dominance: once
/// both flags are set the verdict is kNondominated either way, and NaN
/// sets neither flag in both forms.
Dominance pareto_in_place(const double* challenger, const double* incumbent,
                          std::size_t m) {
    bool c_better = false;
    bool i_better = false;
    for (std::size_t j = 0; j < m; ++j) {
        c_better |= challenger[2 * j] < incumbent[j];
        i_better |= incumbent[j] < challenger[2 * j];
    }
    return c_better && i_better ? Dominance::kNondominated
           : c_better          ? Dominance::kDominates
           : i_better          ? Dominance::kDominatedBy
                               : Dominance::kEqual;
}

/// A mirror row gathered into contiguous storage, for compare_constrained's
/// spans and for a tournament's incumbent. Heap-free up to 8 objectives.
class GatheredRow {
public:
    std::span<const double> gather(const double* row, std::size_t m) {
        double* out = inline_;
        if (m > std::size(inline_)) {
            spill_.resize(m);
            out = spill_.data();
        }
        for (std::size_t j = 0; j < m; ++j) out[j] = row[2 * j];
        return {out, m};
    }

private:
    double inline_[8];
    std::vector<double> spill_;
};

/// The feasible injection scan over the pair-interleaved mirror: for every
/// member, the flag-OR Pareto compare against the offspring (exactly
/// compare_pareto's verdict, see pareto_in_place), two rows per 128-bit
/// lane pair. Each 64-row block folds into two bitmasks, "offspring
/// dominates row" and "row dominates offspring"; the first is emitted
/// with ctz, so \p dominated receives member indices in ascending order.
/// The padding row of an odd-sized population is masked off.
template <std::size_t kM>
void scan_pairs(const double* pairs, std::size_t count, std::size_t num_obj,
                const double* offspring, std::vector<std::size_t>& dominated,
                bool& offspring_dominated) {
    const std::size_t m = kM != 0 ? kM : num_obj;
    const std::size_t stride = 2 * m;
    for (std::size_t base = 0; base < count; base += 64) {
        const std::size_t rows = std::min<std::size_t>(64, count - base);
        const double* pair = pairs + base / 2 * stride;
        std::uint64_t dominates = 0;
        std::uint64_t dominated_by = 0;
        for (std::size_t p = 0; 2 * p < rows; ++p, pair += stride) {
            __m128d o_better = _mm_setzero_pd();
            __m128d row_better = _mm_setzero_pd();
            for (std::size_t j = 0; j < m; ++j) {
                const __m128d row = _mm_loadu_pd(pair + 2 * j);
                const __m128d o = _mm_set1_pd(offspring[j]);
                o_better = _mm_or_pd(o_better, _mm_cmplt_pd(o, row));
                row_better = _mm_or_pd(row_better, _mm_cmplt_pd(row, o));
            }
            dominates |= static_cast<std::uint64_t>(_mm_movemask_pd(
                             _mm_andnot_pd(row_better, o_better)))
                         << (2 * p);
            dominated_by |= static_cast<std::uint64_t>(_mm_movemask_pd(
                                _mm_andnot_pd(o_better, row_better)))
                            << (2 * p);
        }
        const std::uint64_t valid =
            rows == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rows) - 1;
        dominates &= valid;
        if ((dominated_by & valid) != 0) offspring_dominated = true;
        for (; dominates != 0; dominates &= dominates - 1)
            dominated.push_back(base + static_cast<std::size_t>(
                                           std::countr_zero(dominates)));
    }
}

} // namespace

Population::Population(std::size_t target_size) : target_size_(target_size) {
    if (target_size == 0)
        throw std::invalid_argument("population: target size must be >= 1");
    members_.reserve(target_size);
}

Population::Population(SolutionPool& pool, std::size_t target_size)
    : Population(target_size) {
    pool_ = &pool;
}

Population::~Population() { clear(); }

SolutionPool& Population::pool_for(ConstSolutionView exemplar) {
    if (pool_ == nullptr) {
        owned_pool_ = std::make_unique<SolutionPool>(
            exemplar.variables.size(), exemplar.objectives.size(),
            exemplar.constraints.size());
        pool_ = owned_pool_.get();
    }
    return *pool_;
}

void Population::set_target_size(std::size_t target) {
    if (target == 0)
        throw std::invalid_argument("population: target size must be >= 1");
    target_size_ = target;
}

void Population::clear() noexcept {
    if (pool_ != nullptr)
        for (const SolutionHandle h : members_) pool_->release(h);
    members_.clear();
    dominated_scratch_.clear();
    objective_pairs_.clear();
    cached_violation_.clear();
    infeasible_members_ = 0;
}

void Population::cache_member(std::size_t i) {
    const ConstSolutionView member = pool_->view(members_[i]);
    num_objectives_ = member.objectives.size();
    if (i == cached_violation_.size()) { // a new row; even rows open a pair
        cached_violation_.push_back(0.0);
        if (i % 2 == 0)
            objective_pairs_.resize(objective_pairs_.size() +
                                    2 * num_objectives_);
    }
    double* row = objective_pairs_.data() + mirror_offset(i);
    for (std::size_t j = 0; j < num_objectives_; ++j)
        row[2 * j] = member.objectives[j];
    const double violation = member.total_violation();
    infeasible_members_ -= cached_violation_[i] > 0.0 ? 1 : 0;
    infeasible_members_ += violation > 0.0 ? 1 : 0;
    cached_violation_[i] = violation;
}

bool Population::inject(ConstSolutionView offspring, util::Rng& rng,
                        std::uint32_t* member_row) {
    if (!offspring.evaluated)
        throw std::invalid_argument("population: offspring not evaluated");

    SolutionPool& pool = pool_for(offspring);
    dominated_scratch_.clear();
    if (members_.size() < target_size_) {
        members_.push_back(pool.store(offspring));
        cache_member(members_.size() - 1);
        if (member_row != nullptr) *member_row = members_.back().index;
        return true;
    }

    // One pass over the dense objective mirror: collect members the
    // offspring dominates and check whether any member dominates the
    // offspring. Replacement of a dominated member takes precedence over
    // rejection (both can hold at once when the population carries
    // mutually dominated members), keeping the rule order-independent.
    // With every member and the offspring feasible, Deb's rule reduces to
    // Pareto dominance and the vectorized scan decides; otherwise each
    // member goes through compare_constrained.
    bool offspring_dominated = false;
    const double violation = offspring.total_violation();
    if (!(violation > 0.0) && infeasible_members_ == 0) {
        const auto scan = num_objectives_ == 2   ? scan_pairs<2>
                          : num_objectives_ == 3 ? scan_pairs<3>
                          : num_objectives_ == 4 ? scan_pairs<4>
                          : num_objectives_ == 5 ? scan_pairs<5>
                                                 : scan_pairs<0>;
        scan(objective_pairs_.data(), members_.size(), num_objectives_,
             offspring.objectives.data(), dominated_scratch_,
             offspring_dominated);
    } else {
        GatheredRow member;
        for (std::size_t i = 0; i < members_.size(); ++i) {
            switch (compare_constrained(
                offspring.objectives, violation,
                member.gather(mirror_row(i), num_objectives_),
                cached_violation_[i])) {
            case Dominance::kDominates:
                dominated_scratch_.push_back(i);
                break;
            case Dominance::kDominatedBy:
                offspring_dominated = true;
                break;
            default:
                break;
            }
        }
    }
    if (dominated_scratch_.empty() && offspring_dominated) return false;
    if (!dominated_scratch_.empty()) {
        const std::size_t victim = dominated_scratch_[static_cast<std::size_t>(
            rng.below(dominated_scratch_.size()))];
        pool.copy_payload(members_[victim], offspring);
        cache_member(victim);
        if (member_row != nullptr) *member_row = members_[victim].index;
        return true;
    }
    const auto victim = static_cast<std::size_t>(rng.below(members_.size()));
    pool.copy_payload(members_[victim], offspring);
    cache_member(victim);
    if (member_row != nullptr) *member_row = members_[victim].index;
    return true;
}

void Population::append(ConstSolutionView solution) {
    members_.push_back(pool_for(solution).store(solution));
    cache_member(members_.size() - 1);
}

void Population::restore(const std::vector<Solution>& members,
                         std::size_t target) {
    set_target_size(target);
    clear();
    members_.reserve(members.size());
    for (const Solution& s : members) {
        members_.push_back(pool_for(s).store(s));
        cache_member(members_.size() - 1);
    }
}

ConstSolutionView Population::random_member(util::Rng& rng) const {
    if (members_.empty())
        throw std::logic_error("population: random_member on empty population");
    return pool_->view(
        members_[static_cast<std::size_t>(rng.below(members_.size()))]);
}

Dominance Population::challenge(std::size_t idx,
                                std::span<const double> incumbent,
                                double incumbent_violation) const {
    if (infeasible_members_ == 0)
        return pareto_in_place(mirror_row(idx), incumbent.data(),
                               num_objectives_);
    GatheredRow challenger;
    return compare_constrained(
        challenger.gather(mirror_row(idx), num_objectives_),
        cached_violation_[idx], incumbent, incumbent_violation);
}

std::size_t Population::tournament_pick(std::size_t tournament_size,
                                        util::Rng& rng) const {
    if (tournament_size == 0) tournament_size = 1;
    std::size_t best =
        static_cast<std::size_t>(rng.below(members_.size()));
    // Hold the incumbent's row in a small local buffer: the winner changes
    // on only a fraction of rounds, and at restart-grown sizes re-reading
    // the incumbent through the (cache-cold) mirror every round costs as
    // much as the challenger read itself. Challengers are read in place.
    // Same values, same comparisons.
    GatheredRow incumbent;
    std::span<const double> best_objectives =
        incumbent.gather(mirror_row(best), num_objectives_);
    for (std::size_t round = 1; round < tournament_size; ++round) {
        const std::size_t idx =
            static_cast<std::size_t>(rng.below(members_.size()));
        const Dominance result =
            challenge(idx, best_objectives, cached_violation_[best]);
        if (result == Dominance::kDominates) {
            best = idx;
            best_objectives =
                incumbent.gather(mirror_row(best), num_objectives_);
        }
    }
    return best;
}

ConstSolutionView Population::tournament_select(std::size_t tournament_size,
                                                util::Rng& rng) const {
    if (members_.empty())
        throw std::logic_error("population: tournament on empty population");
    return pool_->view(members_[tournament_pick(tournament_size, rng)]);
}

std::size_t Population::tournament_pick_index(std::size_t tournament_size,
                                              util::Rng& rng) const {
    if (members_.empty())
        throw std::logic_error("population: tournament on empty population");
    return tournament_pick(tournament_size, rng);
}

std::size_t Population::tournament_pick_freq(
    std::size_t tournament_size, util::Rng& rng,
    std::span<const std::uint32_t> counts_by_row) const {
    if (members_.empty())
        throw std::logic_error("population: tournament on empty population");
    if (tournament_size == 0) tournament_size = 1;
    const auto count_of = [&](std::size_t idx) -> std::uint32_t {
        const std::uint32_t row = members_[idx].index;
        return row < counts_by_row.size() ? counts_by_row[row] : 0u;
    };
    std::size_t best = static_cast<std::size_t>(rng.below(members_.size()));
    std::uint32_t best_count = count_of(best);
    GatheredRow incumbent;
    std::span<const double> best_objectives =
        incumbent.gather(mirror_row(best), num_objectives_);
    for (std::size_t round = 1; round < tournament_size; ++round) {
        const std::size_t idx =
            static_cast<std::size_t>(rng.below(members_.size()));
        const Dominance result =
            challenge(idx, best_objectives, cached_violation_[best]);
        const bool wins =
            result == Dominance::kDominates ||
            (result == Dominance::kNondominated &&
             count_of(idx) < best_count);
        if (wins) {
            best = idx;
            best_count = count_of(best);
            best_objectives =
                incumbent.gather(mirror_row(best), num_objectives_);
        }
    }
    return best;
}

std::vector<Solution> Population::materialize_members() const {
    std::vector<Solution> out;
    out.reserve(members_.size());
    for (const SolutionHandle h : members_)
        out.push_back(pool_->materialize(h));
    return out;
}

} // namespace borg::moea
