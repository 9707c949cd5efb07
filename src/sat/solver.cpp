#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace autolock::sat {

namespace {
constexpr double kVarDecay = 0.95;
constexpr float kClauseDecay = 0.999f;
constexpr double kVarRescaleLimit = 1e100;
constexpr float kClauseRescaleLimit = 1e20f;
constexpr std::uint64_t kRestartBase = 128;
// Learnt clauses with LBD <= this ("glue" clauses) are never deleted.
constexpr std::uint32_t kGlueLbd = 2;
}  // namespace

Solver::Solver() : lbd_mark_(1, 0) {}

void Solver::reserve_vars(std::size_t count) {
  // Exact-fit reserves would reallocate on every incremental encode; grow
  // geometrically so repeated calls stay amortized O(1).
  if (count <= assign_.capacity()) return;
  count = std::max(count, assign_.capacity() * 2);
  assign_.reserve(count);
  saved_phase_.reserve(count);
  var_info_.reserve(count);
  activity_.reserve(count);
  heap_pos_.reserve(count);
  seen_.reserve(count);
  trail_.reserve(count);  // the trail never exceeds the variable count
  free_vars_.reserve(count);
  lbd_mark_.reserve(count + 1);
  watches_.reserve(2 * count);
}

Var Solver::new_var() {
  const Var var = static_cast<Var>(assign_.size());
  assign_.push_back(LBool::kUndef);
  saved_phase_.push_back(LBool::kFalse);
  var_info_.push_back(VarInfo{0, kNoClause});
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  lbd_mark_.push_back(0);  // one stamp slot per possible decision level
  free_vars_.push_back(var);
  watches_.emplace_back();
  watches_.emplace_back();
  // No heap_insert here: solve() rebuilds the branching heap from scratch,
  // so maintaining it during the (hot) encoding phase is wasted work.
  return var;
}

bool Solver::add_clause_impl(Lit* lits, std::size_t n) {
  if (!ok_) return false;
  // Incremental use: adding a clause after a solve() invalidates the model;
  // retract all decisions first so level-0 semantics hold. The branching
  // heap is left stale: solve() rebuilds it before any branching.
  if (!trail_lim_.empty()) backtrack(0, /*update_heap=*/false);
  // Normalize: sort, dedupe, drop false lits, detect tautology/satisfied.
  // Clauses are tiny (Tseitin gates), so insertion sort beats std::sort.
  if (n <= 16) {
    for (std::size_t i = 1; i < n; ++i) {
      const Lit key = lits[i];
      std::size_t j = i;
      for (; j > 0 && lits[j - 1] > key; --j) lits[j] = lits[j - 1];
      lits[j] = key;
    }
  } else {
    std::sort(lits, lits + n);
  }
  n = static_cast<std::size_t>(std::unique(lits, lits + n) - lits);
  std::vector<Lit>& kept = add_scratch_;
  kept.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const Lit lit = lits[i];
    if (lit_var(lit) < 0 ||
        static_cast<std::size_t>(lit_var(lit)) >= num_vars()) {
      throw std::invalid_argument("Solver::add_clause: undeclared variable");
    }
    if (i + 1 < n && lits[i + 1] == lit_neg(lit)) return true;  // taut
    if (i > 0 && lits[i - 1] == lit_neg(lit)) return true;      // taut
    const LBool v = value_lit(lit);
    if (v == LBool::kTrue) return true;   // satisfied at level 0
    if (v == LBool::kFalse) continue;     // falsified at level 0: drop
    kept.push_back(lit);
  }
  if (kept.empty()) {
    ok_ = false;
    return false;
  }
  if (kept.size() == 1) {
    enqueue(kept[0], kNoClause);
    if (propagate() != kNoClause) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef ref = arena_.alloc(
      kept.data(), static_cast<std::uint32_t>(kept.size()), /*learnt=*/false);
  clauses_.push_back(ref);
  attach_clause(ref);
  note_arena_size();
  return true;
}

void Solver::attach_clause(ClauseRef ref) {
  const Clause clause = arena_[ref];
  const bool binary = clause.size() == 2;
  watches_[lit_neg(clause[0])].push_back(make_watcher(ref, clause[1], binary));
  watches_[lit_neg(clause[1])].push_back(make_watcher(ref, clause[0], binary));
}

void Solver::note_arena_size() {
  stats_.arena_bytes = arena_.bytes();
  if (stats_.arena_bytes > stats_.peak_arena_bytes) {
    stats_.peak_arena_bytes = stats_.arena_bytes;
  }
}

void Solver::enqueue(Lit lit, ClauseRef reason) {
  const Var var = lit_var(lit);
  assign_[var] = lit_sign(lit) ? LBool::kFalse : LBool::kTrue;
  var_info_[var] =
      VarInfo{static_cast<std::int32_t>(trail_lim_.size()), reason};
  trail_.push_back(lit);
}

ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit lit = trail_[propagate_head_++];
    ++stats_.propagations;
    // Clauses watching ~lit may become unit/conflicting.
    auto& watch_list = watches_[lit];
    const Lit false_lit = lit_neg(lit);
    const std::size_t n = watch_list.size();
    // Compaction is deferred: watchers only shift once one has been dropped
    // (a moved watch), so the common no-drop traversal performs zero stores.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Watcher w = watch_list[i];
      if (w.binary()) {
        // The blocker is the clause's other literal; no arena access needed
        // unless this is the conflict (analyze reads the clause).
        const LBool v = value_lit(w.blocker);
        if (keep != i) watch_list[keep] = w;
        ++keep;
        if (v == LBool::kTrue) continue;
        if (v == LBool::kFalse) {
          // Normalize lit order (other literal first) so conflict analysis
          // sees the same layout the generic path would produce.
          Clause clause = arena_[w.cref()];
          if (clause[0] != w.blocker) std::swap(clause[0], clause[1]);
          if (keep != i + 1) {
            for (std::size_t j = i + 1; j < n; ++j) {
              watch_list[keep++] = watch_list[j];
            }
            watch_list.resize(keep);
          }
          propagate_head_ = trail_.size();
          return w.cref();
        }
        enqueue(w.blocker, w.cref());
        continue;
      }
      // Blocker shortcut: the blocker is some literal of the clause (it can
      // be stale after watch moves, but always a member), so blocker-true
      // means satisfied without touching clause memory.
      if (value_lit(w.blocker) == LBool::kTrue) {
        if (keep != i) watch_list[keep] = w;
        ++keep;
        continue;
      }
      Clause clause = arena_[w.cref()];
      Lit* lits = clause.lits();
      // Ensure the falsified literal is lits[1].
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      // If first watch true, clause satisfied; keep watch (and refresh the
      // blocker so the next visit can skip the dereference).
      if (value_lit(lits[0]) == LBool::kTrue) {
        watch_list[keep++] = make_watcher(w.cref(), lits[0], false);
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      const std::uint32_t size = clause.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value_lit(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[lit_neg(lits[1])].push_back(
              make_watcher(w.cref(), lits[0], false));
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watcher dropped; compaction active from here
      // Unit or conflict.
      if (keep != i) watch_list[keep] = w;
      ++keep;
      if (value_lit(lits[0]) == LBool::kFalse) {
        const ClauseRef conflict = w.cref();
        // Copy remaining watches and bail.
        if (keep != i + 1) {
          for (std::size_t j = i + 1; j < n; ++j) {
            watch_list[keep++] = watch_list[j];
          }
          watch_list.resize(keep);
        }
        propagate_head_ = trail_.size();
        return conflict;
      }
      enqueue(lits[0], w.cref());
    }
    if (keep != n) watch_list.resize(keep);
  }
  return kNoClause;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
                     int& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // slot for the asserting literal
  int counter = 0;
  Lit asserting = kUndefLit;
  std::size_t index = trail_.size();
  ClauseRef reason = conflict;
  const int current_level = static_cast<int>(trail_lim_.size());

  do {
    Clause clause = arena_[reason];
    if (clause.learnt()) bump_clause(clause);
    // Skip the literal this clause asserted (binary fast-path reasons do
    // not keep it at index 0, so skip by variable rather than position).
    const Var skip = (asserting == kUndefLit) ? -1 : lit_var(asserting);
    const std::uint32_t size = clause.size();
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit q = clause[i];
      const Var v = lit_var(q);
      if (v == skip || seen_[v] || var_info_[v].level == 0) continue;
      seen_[v] = 1;
      bump_var(v);
      if (var_info_[v].level >= current_level) {
        ++counter;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Find next literal on the trail to resolve on.
    while (!seen_[lit_var(trail_[index - 1])]) --index;
    --index;
    asserting = trail_[index];
    seen_[lit_var(asserting)] = 0;
    reason = var_info_[lit_var(asserting)].reason;
    --counter;
  } while (counter > 0);
  out_learnt[0] = lit_neg(asserting);

  // Minimization (cheap self-subsumption): drop literals whose reason is
  // entirely contained in the learnt clause.
  auto redundant = [&](Lit lit) {
    const ClauseRef r = var_info_[lit_var(lit)].reason;
    if (r == kNoClause) return false;
    const Clause clause = arena_[r];
    const std::uint32_t size = clause.size();
    for (std::uint32_t i = 0; i < size; ++i) {
      const Var v = lit_var(clause[i]);
      if (v == lit_var(lit)) continue;  // the literal the clause implied
      if (!seen_[v] && var_info_[v].level != 0) return false;
    }
    return true;
  };
  // Track every variable whose seen_ flag is set so ALL of them are cleared
  // afterwards — including literals dropped as redundant (leaving them set
  // would poison later analyze() calls and make learning unsound).
  std::vector<Var>& marked = analyze_marked_;
  marked.clear();
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    marked.push_back(lit_var(out_learnt[i]));
    seen_[lit_var(out_learnt[i])] = 1;
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (!redundant(out_learnt[i])) out_learnt[keep++] = out_learnt[i];
  }
  out_learnt.resize(keep);
  for (const Var v : marked) seen_[v] = 0;

  // Compute backtrack level: max level among non-asserting literals.
  out_btlevel = 0;
  std::size_t max_pos = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const int lvl = var_info_[lit_var(out_learnt[i])].level;
    if (lvl > out_btlevel) {
      out_btlevel = lvl;
      max_pos = i;
    }
  }
  if (out_learnt.size() > 1) {
    std::swap(out_learnt[1], out_learnt[max_pos]);
  }
}

void Solver::backtrack(int target_level, bool update_heap) {
  if (static_cast<int>(trail_lim_.size()) <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Lit lit = trail_[i - 1];
    const Var var = lit_var(lit);
    saved_phase_[var] = assign_[var];
    assign_[var] = LBool::kUndef;
    var_info_[var].reason = kNoClause;
    // update_heap=false is only sound when a rebuild_heap() happens before
    // the next pick_branch_lit() (solve entry / add_clause paths).
    if (update_heap && heap_pos_[var] < 0) heap_insert(var);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  propagate_head_ = trail_.size();
}

void Solver::bump_var(Var var) {
  activity_[var] += var_inc_;
  if (activity_[var] > kVarRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    for (HeapEntry& e : heap_) e.act *= 1e-100;  // keep cached keys in sync
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[var] >= 0) heap_update(var);
}

void Solver::decay_var_activity() { var_inc_ /= kVarDecay; }

void Solver::bump_clause(Clause clause) {
  clause.set_activity(clause.activity() + clause_inc_);
  if (clause.activity() > kClauseRescaleLimit) {
    for (const ClauseRef ref : learnts_) {
      Clause c = arena_[ref];
      c.set_activity(c.activity() * 1e-20f);
    }
    clause_inc_ *= 1e-20f;
  }
}

void Solver::decay_clause_activity() { clause_inc_ /= kClauseDecay; }

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& lits) {
  ++lbd_stamp_;
  std::uint32_t lbd = 0;
  for (const Lit lit : lits) {
    const auto lvl = static_cast<std::size_t>(var_info_[lit_var(lit)].level);
    if (lbd_mark_[lvl] != lbd_stamp_) {
      lbd_mark_[lvl] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::reduce_db() {
  ++stats_.db_reductions;
  // Reason clauses of current assignments must survive.
  for (const Lit lit : trail_) {
    const ClauseRef r = var_info_[lit_var(lit)].reason;
    if (r != kNoClause) arena_[r].set_locked(true);
  }
  // Worst clauses first: high LBD, then low activity. Glue clauses
  // (LBD <= 2), binary clauses, and locked reasons are never deleted.
  std::sort(learnts_.begin(), learnts_.end(),
            [this](ClauseRef a, ClauseRef b) {
              const Clause ca = arena_[a];
              const Clause cb = arena_[b];
              if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
              return ca.activity() < cb.activity();
            });
  const std::size_t target = learnts_.size() / 2;
  std::size_t removed = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef ref = learnts_[i];
    const Clause clause = arena_[ref];
    if (removed < target && !clause.locked() && clause.lbd() > kGlueLbd &&
        clause.size() > 2) {
      arena_.free_clause(ref);
      ++removed;
      ++stats_.deleted_clauses;
    } else {
      learnts_[keep++] = ref;
    }
  }
  learnts_.resize(keep);
  for (const Lit lit : trail_) {
    const ClauseRef r = var_info_[lit_var(lit)].reason;
    if (r != kNoClause) arena_[r].set_locked(false);
  }
  // Purge watchers of deleted clauses, then compact the arena if enough of
  // it is dead weight.
  for (auto& watch_list : watches_) {
    watch_list.erase(
        std::remove_if(watch_list.begin(), watch_list.end(),
                       [this](const Watcher& w) {
                         return arena_[w.cref()].deleted();
                       }),
        watch_list.end());
  }
  if (arena_.should_gc()) garbage_collect();
}

void Solver::garbage_collect() {
  ClauseAllocator to;
  to.reserve_words(arena_.size_words() - arena_.wasted_words());
  for (auto& watch_list : watches_) {
    for (Watcher& w : watch_list) {
      w = make_watcher(arena_.reloc(w.cref(), to), w.blocker, w.binary());
    }
  }
  for (const Lit lit : trail_) {
    ClauseRef& r = var_info_[lit_var(lit)].reason;
    if (r != kNoClause) r = arena_.reloc(r, to);
  }
  for (ClauseRef& ref : clauses_) ref = arena_.reloc(ref, to);
  for (ClauseRef& ref : learnts_) ref = arena_.reloc(ref, to);
  arena_ = std::move(to);
  ++stats_.gc_runs;
  note_arena_size();
}

std::uint64_t Solver::luby(std::uint64_t x) {
  // Luby sequence: 1,1,2,1,1,2,4,... (MiniSAT formulation).
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x %= size;
  }
  return 1ULL << seq;
}

// ---- branching heap --------------------------------------------------------

void Solver::heap_insert(Var var) {
  heap_pos_[var] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(HeapEntry{activity_[var], var});
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var var) {
  const auto i = static_cast<std::size_t>(heap_pos_[var]);
  heap_[i].act = activity_[var];
  heap_sift_up(i);
}

Var Solver::heap_pop() {
  const Var top = heap_[0].var;
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_pos_[heap_[0].var] = 0;
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (heap_[parent].act >= entry.act) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i].var] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = entry;
  heap_pos_[entry.var] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const HeapEntry entry = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].act > heap_[child].act) ++child;
    if (heap_[child].act <= entry.act) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i].var] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = entry;
  heap_pos_[entry.var] = static_cast<std::int32_t>(i);
}

void Solver::rebuild_heap() {
  // Invariant: heap_pos_[v] >= 0 iff v is in heap_, so clearing only the
  // current heap members resets every position marker.
  for (const HeapEntry& e : heap_) heap_pos_[e.var] = -1;
  heap_.clear();
  // Called at decision level 0, so any assigned variable is a permanent
  // level-0 fact: drop it from the free list for good. Iterating the free
  // list in variable order reproduces exactly the heap the full 0..n-1
  // scan used to build, at O(unassigned) cost.
  std::size_t keep = 0;
  for (const Var v : free_vars_) {
    if (assign_[v] != LBool::kUndef) continue;
    free_vars_[keep++] = v;
    heap_insert(v);
  }
  free_vars_.resize(keep);
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const Var var = heap_[0].var;
    if (assign_[var] == LBool::kUndef) {
      heap_pop();
      const bool negated = saved_phase_[var] != LBool::kTrue;
      return make_lit(var, negated);
    }
    heap_pop();
  }
  return kUndefLit;
}

// ---- main solve loop -------------------------------------------------------

SolveResult Solver::solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return SolveResult::kUnsat;
  backtrack(0, /*update_heap=*/false);  // rebuild_heap() follows
  rebuild_heap();
  // Decision levels are bounded by one per variable PLUS one per assumption
  // (duplicate or already-implied assumptions open empty levels), so the
  // per-level LBD stamp array must cover both.
  const std::size_t max_levels = num_vars() + assumptions.size() + 1;
  if (lbd_mark_.size() < max_levels) lbd_mark_.resize(max_levels, 0);
  const std::uint64_t start_conflicts = stats_.conflicts;
  std::uint64_t restart_count = 0;
  std::uint64_t conflicts_until_restart = kRestartBase * luby(0);
  std::uint64_t conflicts_this_restart = 0;

  std::vector<Lit> learnt;
  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (trail_lim_.empty()) {
        ok_ = false;
        return SolveResult::kUnsat;  // conflict at level 0
      }
      int bt_level = 0;
      analyze(conflict, learnt, bt_level);
      const std::uint32_t lbd = compute_lbd(learnt);
      // Backjumps MAY land inside (or below) the assumption prefix: learnt
      // clauses are implied by the formula alone (assumption decisions have
      // no reason clause, so analysis keeps them as ordinary literals), and
      // the decision loop below re-extends any retracted assumptions from
      // trail_lim_.size() before the next branch. No clamping is needed —
      // pinned by SolverAssumptions.* in tests/test_solver.cpp. (A previous
      // comment here claimed a clamp that never existed; the audited
      // invariant is re-extension, not clamping.)
      backtrack(bt_level);
      if (learnt.size() == 1) {
        // analyze() leaves out_btlevel at 0 for a unit learnt (there are no
        // non-asserting literals to take a max over), so the backjump above
        // already retracted every decision — including all assumptions —
        // and the unit lands as a permanent level-0 fact.
        assert(bt_level == 0);
        enqueue(learnt[0], kNoClause);
      } else {
        const ClauseRef ref =
            arena_.alloc(learnt.data(), static_cast<std::uint32_t>(learnt.size()),
                         /*learnt=*/true);
        Clause clause = arena_[ref];
        clause.set_activity(clause_inc_);
        clause.set_lbd(lbd);
        learnts_.push_back(ref);
        attach_clause(ref);
        ++stats_.learnt_clauses;
        stats_.lbd_sum += lbd;
        note_arena_size();
        enqueue(learnt[0], ref);
      }
      decay_var_activity();
      decay_clause_activity();
      if (conflict_budget_ != 0 &&
          stats_.conflicts - start_conflicts >= conflict_budget_) {
        backtrack(0);
        return SolveResult::kUnknown;
      }
      // Budget the learnt DB against the live count (deleted clauses no
      // longer count against the limit after a reduction/GC).
      if (learnts_.size() > learnt_limit_) {
        reduce_db();
        learnt_limit_ += learnt_limit_ / 2;
      }
      continue;
    }

    if (conflicts_this_restart >= conflicts_until_restart) {
      // Restart (keep level-0 trail).
      ++stats_.restarts;
      ++restart_count;
      conflicts_this_restart = 0;
      conflicts_until_restart = kRestartBase * luby(restart_count);
      backtrack(0);
      continue;
    }

    // Extend with assumptions first.
    Lit next = kUndefLit;
    while (trail_lim_.size() < assumptions.size()) {
      const Lit assumption = assumptions[trail_lim_.size()];
      if (lit_var(assumption) < 0 ||
          static_cast<std::size_t>(lit_var(assumption)) >= num_vars()) {
        throw std::invalid_argument("Solver::solve: bad assumption literal");
      }
      const LBool v = value_lit(assumption);
      if (v == LBool::kTrue) {
        // Already implied: open an empty decision level so indexing by
        // trail_lim_.size() advances.
        trail_lim_.push_back(trail_.size());
        continue;
      }
      if (v == LBool::kFalse) {
        backtrack(0);
        return SolveResult::kUnsat;  // assumptions conflict
      }
      next = assumption;
      break;
    }
    if (next == kUndefLit) {
      ++stats_.decisions;
      next = pick_branch_lit();
      if (next == kUndefLit) {
        return SolveResult::kSat;  // all vars assigned
      }
    }
    trail_lim_.push_back(trail_.size());
    enqueue(next, kNoClause);
  }
}

bool Solver::model_value(Var var) const {
  if (var < 0 || static_cast<std::size_t>(var) >= num_vars()) {
    throw std::out_of_range("Solver::model_value: bad var");
  }
  return assign_[var] == LBool::kTrue;
}

std::vector<Lit> forced_literals(Solver& solver, std::span<const Var> vars,
                                 std::uint64_t conflict_budget) {
  const std::uint64_t own_budget = solver.conflict_budget();
  const std::uint64_t start = solver.stats().conflicts;
  // Arms the next solve with what is left of the budget; false once
  // nothing is.
  const auto arm = [&] {
    const std::uint64_t spent = solver.stats().conflicts - start;
    if (conflict_budget != 0 && spent >= conflict_budget) return false;
    solver.set_conflict_budget(conflict_budget == 0 ? 0
                                                    : conflict_budget - spent);
    return true;
  };
  std::vector<Lit> forced;
  if (arm() && solver.solve() == SolveResult::kSat) {
    std::vector<Lit> witness(vars.size());
    std::vector<std::uint8_t> open(vars.size(), 1);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      witness[i] = make_lit(vars[i], !solver.model_value(vars[i]));
    }
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (open[i] == 0) continue;
      if (!arm()) break;
      const SolveResult res = solver.solve({lit_neg(witness[i])});
      if (res == SolveResult::kUnknown) break;
      if (res == SolveResult::kUnsat) {
        forced.push_back(witness[i]);
        continue;
      }
      for (std::size_t j = i + 1; j < vars.size(); ++j) {
        if (!solver.model_value_lit(witness[j])) open[j] = 0;
      }
    }
  }
  solver.set_conflict_budget(own_budget);
  return forced;
}

}  // namespace autolock::sat
