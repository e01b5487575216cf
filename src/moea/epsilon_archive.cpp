#include "moea/epsilon_archive.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace borg::moea {

namespace {

void validate_epsilons(const std::vector<double>& epsilons) {
    if (epsilons.empty())
        throw std::invalid_argument("archive: empty epsilon vector");
    for (const double e : epsilons)
        if (!(e > 0.0))
            throw std::invalid_argument("archive: epsilons must be positive");
}

void validate_candidate(ConstSolutionView solution,
                        const std::vector<double>& epsilons) {
    if (!solution.evaluated || solution.objectives.size() != epsilons.size())
        throw std::invalid_argument(
            "archive: unevaluated or wrong-arity solution");
}

} // namespace

// ---------------------------------------------------------------------------
// ArchiveEngine
// ---------------------------------------------------------------------------

ArchiveEngine::ArchiveEngine(std::vector<double> epsilons)
    : epsilons_(std::move(epsilons)) {
    validate_epsilons(epsilons_);
    const std::size_t m = epsilons_.size();
    axis_min_.assign(m, 0);
    axis_max_.assign(m, 0);
    scratch_box_.assign(m, 0);
}

ArchiveEngine::ArchiveEngine(SolutionPool& pool, std::vector<double> epsilons)
    : ArchiveEngine(std::move(epsilons)) {
    pool_ = &pool;
}

ArchiveEngine::~ArchiveEngine() { reset_structures(); }

SolutionPool& ArchiveEngine::pool_for(ConstSolutionView exemplar) {
    if (pool_ == nullptr) {
        owned_pool_ = std::make_unique<SolutionPool>(
            exemplar.variables.size(), exemplar.objectives.size(),
            exemplar.constraints.size());
        pool_ = owned_pool_.get();
    }
    return *pool_;
}

std::uint64_t ArchiveEngine::row_hash(
    std::span<const double> objectives) noexcept {
    std::uint64_t h = 14695981039346656037ull; // FNV-1a offset basis
    for (const double v : objectives) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull; // FNV prime
        }
    }
    return h;
}

std::uint64_t ArchiveEngine::front_digest() const noexcept {
    // splitmix64 finalizer over the commutative member-hash sum and the
    // member count (the count mix distinguishes fronts whose row hashes
    // cancel, e.g. empty vs. any set summing to zero).
    std::uint64_t x =
        digest_sum_ + 0x9e3779b97f4a7c15ull * (order_.size() + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

std::uint32_t ArchiveEngine::allocate_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    slot_handles_.emplace_back();
    box_arena_.resize(box_arena_.size() + epsilons_.size(), 0);
    slot_sum_.push_back(0);
    slot_hash_.push_back(0);
    slot_evicted_.push_back(0);
    return static_cast<std::uint32_t>(slot_handles_.size() - 1);
}

void ArchiveEngine::release_slot(std::uint32_t slot) {
    // The arena row and index entries stay allocated for reuse; only the
    // payload row returns to the pool so evicted solutions do not linger.
    digest_sum_ -= row_hash(pool_->objectives(slot_handles_[slot]));
    pool_->release(slot_handles_[slot]);
    slot_handles_[slot] = SolutionHandle{};
    free_slots_.push_back(slot);
}

void ArchiveEngine::erase_from_map(std::uint32_t slot) {
    auto [lo, hi] = box_map_.equal_range(slot_hash_[slot]);
    for (auto it = lo; it != hi; ++it) {
        if (it->second == slot) {
            box_map_.erase(it);
            return;
        }
    }
}

void ArchiveEngine::refresh_axis_bounds() {
    const std::size_t m = epsilons_.size();
    if (order_.empty()) {
        axis_min_.assign(m, 0);
        axis_max_.assign(m, 0);
        return;
    }
    axis_min_.assign(m, std::numeric_limits<std::int64_t>::max());
    axis_max_.assign(m, std::numeric_limits<std::int64_t>::min());
    for (const std::uint32_t slot : order_) {
        const auto box = box_of(slot);
        for (std::size_t i = 0; i < m; ++i) {
            axis_min_[i] = std::min(axis_min_[i], box[i]);
            axis_max_[i] = std::max(axis_max_[i], box[i]);
        }
    }
}

bool ArchiveEngine::below_axis_min() const {
    for (std::size_t i = 0; i < scratch_box_.size(); ++i)
        if (scratch_box_[i] < axis_min_[i]) return true;
    return false;
}

bool ArchiveEngine::above_axis_max() const {
    for (std::size_t i = 0; i < scratch_box_.size(); ++i)
        if (scratch_box_[i] > axis_max_[i]) return true;
    return false;
}

void ArchiveEngine::reset_structures() noexcept {
    for (const SolutionHandle h : slot_handles_)
        if (!h.is_null()) pool_->release(h);
    slot_handles_.clear();
    box_arena_.clear();
    slot_sum_.clear();
    slot_hash_.clear();
    slot_evicted_.clear();
    free_slots_.clear();
    order_.clear();
    by_sum_.clear();
    box_map_.clear();
    digest_sum_ = 0;
}

void ArchiveEngine::install(ConstSolutionView solution, SolutionHandle owned) {
    // Precondition: scratch_box_ holds the candidate's ε-box.
    const std::uint32_t slot = allocate_slot();
    slot_handles_[slot] =
        owned.is_null() ? pool_for(solution).store(solution) : owned;
    digest_sum_ += row_hash(pool_->objectives(slot_handles_[slot]));
    std::copy(scratch_box_.begin(), scratch_box_.end(),
              box_arena_.begin() +
                  static_cast<std::ptrdiff_t>(slot * epsilons_.size()));
    std::int64_t sum = 0;
    for (const std::int64_t c : scratch_box_) sum += c;
    slot_sum_[slot] = sum;
    slot_hash_[slot] = box_key_hash(scratch_box_);

    const auto pos = std::lower_bound(
        by_sum_.begin(), by_sum_.end(), sum,
        [&](std::uint32_t s, std::int64_t v) { return slot_sum_[s] < v; });
    by_sum_.insert(pos, slot);
    box_map_.emplace(slot_hash_[slot], slot);

    if (order_.empty()) {
        axis_min_.assign(scratch_box_.begin(), scratch_box_.end());
        axis_max_.assign(scratch_box_.begin(), scratch_box_.end());
    } else {
        for (std::size_t i = 0; i < scratch_box_.size(); ++i) {
            axis_min_[i] = std::min(axis_min_[i], scratch_box_[i]);
            axis_max_[i] = std::max(axis_max_[i], scratch_box_[i]);
        }
    }
    order_.push_back(slot);
}

void ArchiveEngine::discard(SolutionHandle owned) {
    if (!owned.is_null()) pool_->release(owned);
}

ArchiveAdd ArchiveEngine::add(ConstSolutionView solution) {
    return do_add(solution, SolutionHandle{});
}

ArchiveAdd ArchiveEngine::add_owned(SolutionHandle handle) {
    if (pool_ == nullptr)
        throw std::logic_error("archive: add_owned requires a shared pool");
    return do_add(pool_->view(handle), handle);
}

ArchiveAdd ArchiveEngine::do_add(ConstSolutionView solution,
                                 SolutionHandle owned) {
    validate_candidate(solution, epsilons_);

    // Constraint handling: the archive stores the feasible ε-front. While
    // no feasible solution has ever been seen, it instead carries the
    // single least-violating solution so search has an anchor; the first
    // feasible arrival evicts it.
    if (!solution.feasible()) {
        const bool infeasible_phase =
            !order_.empty() && !member_view(order_[0]).feasible();
        if (!order_.empty() && !infeasible_phase) {
            discard(owned);
            return ArchiveAdd::kRejected; // feasible members always win
        }
        if (!order_.empty() &&
            solution.total_violation() >=
                member_view(order_[0]).total_violation()) {
            discard(owned);
            return ArchiveAdd::kRejected;
        }
        reset_structures(); // releases members only, never the candidate row
        epsilon_box_into(solution.objectives, epsilons_, scratch_box_);
        install(solution, owned);
        ++improvements_;
        ++progress_; // violation improved: counts as search progress
        return ArchiveAdd::kAddedNewBox;
    }
    if (!order_.empty() && !member_view(order_[0]).feasible()) {
        // First feasible solution: the infeasible anchor is obsolete.
        reset_structures();
    }

    epsilon_box_into(solution.objectives, epsilons_, scratch_box_);
    const std::uint64_t hash = box_key_hash(scratch_box_);

    // Same-box contest in O(1) via the exact hash index. Members are
    // mutually box-nondominated, so an occupied same box means no other
    // member can reject or be evicted: the contest alone decides.
    auto [lo, hi] = box_map_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
        const std::uint32_t slot = it->second;
        const auto incumbent_box = box_of(slot);
        if (!std::equal(incumbent_box.begin(), incumbent_box.end(),
                        scratch_box_.begin()))
            continue; // different box with a colliding hash
        const double d_new =
            distance_to_box_corner(solution.objectives, scratch_box_,
                                   epsilons_);
        const double d_old = distance_to_box_corner(
            member_view(slot).objectives, incumbent_box, epsilons_);
        if (!(d_new < d_old)) {
            discard(owned);
            return ArchiveAdd::kRejected;
        }
        // The winner inherits the incumbent's slot — box, sum, hash, and
        // both indexes stay valid — but moves to the back of the
        // iteration order, matching the naive drop-and-append.
        digest_sum_ -= row_hash(member_view(slot).objectives);
        if (owned.is_null()) {
            pool_->copy_payload(slot_handles_[slot], solution);
        } else {
            pool_->release(slot_handles_[slot]);
            slot_handles_[slot] = owned;
        }
        digest_sum_ += row_hash(member_view(slot).objectives);
        order_.erase(std::find(order_.begin(), order_.end(), slot));
        order_.push_back(slot);
        ++improvements_;
        return ArchiveAdd::kReplacedSameBox;
    }

    std::int64_t cand_sum = 0;
    for (const std::int64_t c : scratch_box_) cand_sum += c;

    // Rejection: a dominating box is <= on every axis and differs, so its
    // coordinate sum is strictly smaller. Scanning ascending by sum tests
    // the strongest members (nearest the ideal corner) first, which is
    // where a dominator of a typical dominated candidate lives. If the
    // candidate is below the occupied range on any single axis, nothing
    // can dominate it and the scan is skipped outright.
    if (!below_axis_min()) {
        for (const std::uint32_t slot : by_sum_) {
            if (slot_sum_[slot] >= cand_sum) break;
            if (compare_boxes(box_of(slot), scratch_box_) ==
                Dominance::kDominates) {
                discard(owned);
                return ArchiveAdd::kRejected;
            }
        }
    }

    // Eviction: anything the candidate dominates has a strictly larger
    // sum — scan the tail of the sum order, skipped entirely when the
    // candidate exceeds the occupied range on any single axis.
    scratch_evicted_.clear();
    if (!above_axis_max()) {
        for (std::size_t k = by_sum_.size(); k-- > 0;) {
            const std::uint32_t slot = by_sum_[k];
            if (slot_sum_[slot] <= cand_sum) break;
            if (compare_boxes(scratch_box_, box_of(slot)) ==
                Dominance::kDominates)
                scratch_evicted_.push_back(slot);
        }
    }

    if (!scratch_evicted_.empty()) {
        // Eviction can only loosen the true bounds. While every axis keeps
        // a member on its bound the kept bounds stay exact, so rescan only
        // when an evicted box held one.
        bool held_bound = false;
        for (const std::uint32_t slot : scratch_evicted_) {
            slot_evicted_[slot] = 1;
            const auto box = box_of(slot);
            for (std::size_t i = 0; i < box.size(); ++i)
                held_bound |= box[i] == axis_min_[i] || box[i] == axis_max_[i];
        }
        std::erase_if(by_sum_, [&](std::uint32_t s) {
            return slot_evicted_[s] != 0;
        });
        std::erase_if(order_, [&](std::uint32_t s) {
            return slot_evicted_[s] != 0;
        });
        for (const std::uint32_t slot : scratch_evicted_) {
            erase_from_map(slot);
            slot_evicted_[slot] = 0;
            release_slot(slot);
        }
        if (held_bound) refresh_axis_bounds();
    }

    install(solution, owned);
    ++improvements_;
    ++progress_;
    return ArchiveAdd::kAddedNewBox;
}

ArchiveBatchResult ArchiveEngine::add_all(std::span<const Solution> batch) {
    ArchiveBatchResult result;
    for (const Solution& s : batch) {
        switch (add(s)) {
        case ArchiveAdd::kAddedNewBox: ++result.added_new_box; break;
        case ArchiveAdd::kReplacedSameBox: ++result.replaced_same_box; break;
        case ArchiveAdd::kRejected: ++result.rejected; break;
        }
    }
    return result;
}

ArchiveBatchResult ArchiveEngine::add_all(
    std::span<const SolutionHandle> batch) {
    ArchiveBatchResult result;
    for (const SolutionHandle h : batch) {
        switch (add_owned(h)) {
        case ArchiveAdd::kAddedNewBox: ++result.added_new_box; break;
        case ArchiveAdd::kReplacedSameBox: ++result.replaced_same_box; break;
        case ArchiveAdd::kRejected: ++result.rejected; break;
        }
    }
    return result;
}

std::vector<Solution> ArchiveEngine::solutions() const {
    std::vector<Solution> out;
    out.reserve(order_.size());
    for (const std::uint32_t slot : order_)
        out.push_back(pool_->materialize(slot_handles_[slot]));
    return out;
}

std::vector<std::vector<double>> ArchiveEngine::objective_vectors() const {
    std::vector<std::vector<double>> out;
    out.reserve(order_.size());
    for (const std::uint32_t slot : order_) {
        const auto objectives = pool_->objectives(slot_handles_[slot]);
        out.emplace_back(objectives.begin(), objectives.end());
    }
    return out;
}

std::vector<std::size_t> ArchiveEngine::operator_counts(
    std::size_t num_operators) const {
    std::vector<std::size_t> counts;
    operator_counts_into(counts, num_operators);
    return counts;
}

void ArchiveEngine::operator_counts_into(std::vector<std::size_t>& counts,
                                         std::size_t num_operators) const {
    counts.assign(num_operators, 0);
    for (const std::uint32_t slot : order_) {
        const int op = pool_->operator_index(slot_handles_[slot]);
        if (op >= 0 && static_cast<std::size_t>(op) < num_operators)
            ++counts[static_cast<std::size_t>(op)];
    }
}

void ArchiveEngine::clear() noexcept { reset_structures(); }

void ArchiveEngine::restore(const std::vector<Solution>& solutions,
                            std::uint64_t progress,
                            std::uint64_t improvements) {
    reset_structures();
    for (const Solution& s : solutions) {
        validate_candidate(s, epsilons_);
        epsilon_box_into(s.objectives, epsilons_, scratch_box_);
        install(s, SolutionHandle{});
    }
    progress_ = progress;
    improvements_ = improvements;
}

// ---------------------------------------------------------------------------
// NaiveArchive — the frozen reference implementation.
// ---------------------------------------------------------------------------

NaiveArchive::NaiveArchive(std::vector<double> epsilons)
    : epsilons_(std::move(epsilons)) {
    validate_epsilons(epsilons_);
}

ArchiveAdd NaiveArchive::add(const Solution& solution) {
    validate_candidate(solution, epsilons_);

    if (!solution.feasible()) {
        const bool infeasible_phase =
            !entries_.empty() && !entries_[0].solution.feasible();
        if (!entries_.empty() && !infeasible_phase)
            return ArchiveAdd::kRejected; // feasible members always win
        if (!entries_.empty() &&
            solution.total_violation() >=
                entries_[0].solution.total_violation())
            return ArchiveAdd::kRejected;
        entries_.clear();
        entries_.push_back(
            Entry{solution, epsilon_box(solution.objectives, epsilons_)});
        ++improvements_;
        ++progress_; // violation improved: counts as search progress
        return ArchiveAdd::kAddedNewBox;
    }
    if (!entries_.empty() && !entries_[0].solution.feasible()) {
        // First feasible solution: the infeasible anchor is obsolete.
        entries_.clear();
    }

    const auto box = epsilon_box(solution.objectives, epsilons_);

    // Single pass: detect rejection, same-box contests, and evictions.
    bool same_box_win = false;
    std::size_t write = 0;
    for (std::size_t read = 0; read < entries_.size(); ++read) {
        Entry& entry = entries_[read];
        const Dominance rel = compare_boxes(box, entry.box);
        if (rel == Dominance::kDominatedBy) {
            // An existing member ε-dominates the candidate: reject. No
            // eviction can have happened before a dominator is found
            // (dominance of boxes is a partial order: if the candidate's box
            // dominated an earlier member's box, no member's box can
            // dominate the candidate's), so the archive is untouched.
            return ArchiveAdd::kRejected;
        }
        if (rel == Dominance::kEqual) {
            // Same box: the solution nearer the box corner wins.
            const double d_new = distance_to_box_corner(solution.objectives,
                                                        box, epsilons_);
            const double d_old = distance_to_box_corner(
                entry.solution.objectives, entry.box, epsilons_);
            if (d_new < d_old) {
                same_box_win = true;
                continue; // drop the incumbent
            }
            return ArchiveAdd::kRejected;
        }
        if (rel == Dominance::kDominates) continue; // evict dominated member
        if (write != read) entries_[write] = std::move(entries_[read]);
        ++write;
    }
    entries_.resize(write);
    entries_.push_back(Entry{solution, box});

    ++improvements_;
    if (!same_box_win) {
        ++progress_;
        return ArchiveAdd::kAddedNewBox;
    }
    return ArchiveAdd::kReplacedSameBox;
}

ArchiveBatchResult NaiveArchive::add_all(std::span<const Solution> batch) {
    ArchiveBatchResult result;
    for (const Solution& s : batch) {
        switch (add(s)) {
        case ArchiveAdd::kAddedNewBox: ++result.added_new_box; break;
        case ArchiveAdd::kReplacedSameBox: ++result.replaced_same_box; break;
        case ArchiveAdd::kRejected: ++result.rejected; break;
        }
    }
    return result;
}

std::vector<Solution> NaiveArchive::solutions() const {
    std::vector<Solution> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.solution);
    return out;
}

std::vector<std::vector<double>> NaiveArchive::objective_vectors() const {
    std::vector<std::vector<double>> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.solution.objectives);
    return out;
}

std::vector<std::size_t> NaiveArchive::operator_counts(
    std::size_t num_operators) const {
    std::vector<std::size_t> counts(num_operators, 0);
    for (const Entry& e : entries_) {
        const int op = e.solution.operator_index;
        if (op >= 0 && static_cast<std::size_t>(op) < num_operators)
            ++counts[static_cast<std::size_t>(op)];
    }
    return counts;
}

void NaiveArchive::clear() noexcept { entries_.clear(); }

void NaiveArchive::restore(const std::vector<Solution>& solutions,
                           std::uint64_t progress,
                           std::uint64_t improvements) {
    entries_.clear();
    for (const Solution& s : solutions) {
        validate_candidate(s, epsilons_);
        entries_.push_back(
            Entry{s, epsilon_box(s.objectives, epsilons_)});
    }
    progress_ = progress;
    improvements_ = improvements;
}

} // namespace borg::moea
