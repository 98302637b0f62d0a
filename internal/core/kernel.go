package core

import (
	"context"
	"fmt"

	"noctest/internal/noc"
	"noctest/internal/power"
)

// Evaluator is the incremental search kernel: it scores a stream of
// related core orders against one model, replaying only the suffix
// that differs from the previously evaluated order. After every
// placement it checkpoints the pass state — interface frontiers, the
// running makespan, and a snapshot of the power profile's arrays — and
// journals the committed reservations (link spans and the placement
// records themselves), so rewinding to position k costs one frontier
// copy, one profile-array copy, and popping the journals. Restoring
// the profile from a snapshot is bitwise (the arrays are copied
// verbatim), which is what keeps incremental results exactly equal to
// full replays, float rounding included — and it costs the same
// whether one position is undone or thirty.
//
// On top of suffix replay the kernel carries a true delta-evaluation
// path for the window moves local search lives on: when a move changes
// only a window of a fully committed order, the window is replayed and
// its outcome compared against the reference checkpoints — identical
// interface frontiers, identical per-core reservations, and no
// reordered pair of overlapping reservations (so even float summation
// order is preserved). On a match the rest of the order is provably
// unchanged: the suffix placements are fast-forwarded straight from
// the reservation journal without rescanning a single interface, and
// the move's makespan is read off the final checkpoint. Any mismatch
// falls back to plain suffix replay, costing only the comparison.
//
// Evaluate also takes an incumbent bound and aborts a pass the moment
// its partial makespan exceeds it (see MakespanBounded for why that is
// sound). An aborted or failed pass leaves the kernel holding the
// evaluated prefix, which the next Evaluate reuses like any other.
//
// The kernel produces exactly the makespans of the full-replay path:
// internal/verify's incremental-replay and delta-replay oracles
// cross-check the paths on every sweep scenario. An Evaluator owns
// pooled scratch state and is not safe for concurrent use; each search
// chain creates its own and must Close it to return the scratch to the
// model's pool.
type Evaluator struct {
	m *Model
	v Variant
	s *scratch

	// ref is the last evaluated order; its first valid positions are
	// committed in the scratch, with cps[0..valid] current. undo holds
	// the flat journals of everything the committed prefix reserved;
	// marks[i] records the journal lengths before position i was
	// placed, so positions k..valid-1 undo by popping each journal down
	// to marks[k]. Flat journals (rather than one slice per position)
	// are what let a position commit a whole segment chain — several
	// reservations per link — and still rewind with per-link LIFO
	// discipline.
	ref   []int
	valid int
	cps   []*checkpoint
	undo  evalUndo
	marks []evalMark

	// delta gates the delta-evaluation fast-forward; the differential
	// oracle disables it to build its forced-suffix-replay arm.
	delta bool
	// trusted skips per-call permutation validation; see
	// SetTrustedOrders.
	trusted bool
	// refRes snapshots the reference's window+suffix reservation
	// records before a delta attempt's rewind discards them; refWinLen
	// is the number of entries belonging to the changed window, and
	// refMarks the reference's journal marks over the saved tail — the
	// pieces restoreRef needs to rebuild the reference exactly.
	refRes    []resRec
	refWinLen int
	refMarks  []evalMark
	// refCps holds reference checkpoints displaced by a delta-eligible
	// candidate's captures: captureAt swaps the old checkpoint out
	// instead of overwriting it — a pointer swap, since checkpoints now
	// carry profile snapshots and copying them by value would be a
	// 100-byte duffcopy per capture — so restoreRef can swap it back.
	refCps []*checkpoint
	// resOff/resPos are generation-tagged per-core lookups used by the
	// delta match: the core's group offset in refRes and its reference
	// position in the window.
	resOff []int
	resPos []int
	resGen []int
	resCtr int

	// seen/seenGen validate each order as a permutation in O(n) without
	// clearing between calls.
	seen    []int
	seenGen int
}

// checkpoint is the pass state before placing one position: the
// running makespan, the interface frontiers, and a verbatim snapshot
// of the power profile's segment arrays. The snapshot is what makes
// rewinding O(profile size) regardless of how many reservations are
// being undone — and what lets the delta paths install a proven-equal
// profile state with one copy instead of re-summing a suffix.
type checkpoint struct {
	makespan int
	fr       []frontier
	prof     power.ProfileSnapshot
}

// evalMark records the undo-journal lengths before one position was
// placed.
type evalMark struct {
	links, res int
}

// evalUndo aggregates the kernel's undo journals: the link reservations
// (popped LIFO per link) and the reservation records themselves — one
// per committed segment, carrying enough to re-commit the placement
// without rediscovering it. The power profile needs no journal: every
// checkpoint snapshots it, and rewinds restore the snapshot.
type evalUndo struct {
	links []noc.LinkID
	res   []resRec
}

// resRec is one committed segment reservation: which core, on which
// interface, over which span. The candidate table recovers everything
// else (links, draw) from (core, iface).
type resRec struct {
	core, iface, start, end int
}

// NewEvaluator returns an incremental evaluator for one interface-choice
// rule, holding a scratch from the model's pool until Close.
func (m *Model) NewEvaluator(v Variant) *Evaluator {
	e := &Evaluator{
		m:      m,
		v:      v,
		s:      m.pool.Get().(*scratch),
		ref:    make([]int, 0, len(m.cores)),
		cps:    make([]*checkpoint, len(m.cores)+1),
		refCps: make([]*checkpoint, len(m.cores)+1),
		marks:  make([]evalMark, len(m.cores)+1),
		delta:  true,
		resOff: make([]int, len(m.cores)),
		resPos: make([]int, len(m.cores)),
		resGen: make([]int, len(m.cores)),
		seen:   make([]int, len(m.cores)),
	}
	for i := range e.cps {
		e.cps[i] = &checkpoint{}
		e.refCps[i] = &checkpoint{}
	}
	e.s.reset(m)
	e.capture(e.cps[0], 0)
	return e
}

// Close returns the evaluator's scratch to the model's pool. The
// evaluator must not be used afterwards.
func (e *Evaluator) Close() {
	if e.s != nil {
		e.m.pool.Put(e.s)
		e.s = nil
	}
}

// SetDeltaEnabled toggles the delta-evaluation fast-forward. It exists
// for the differential oracle, which races a delta-enabled evaluator
// against a forced-suffix-replay one and a full replay; disabling never
// changes results, only how they are computed.
func (e *Evaluator) SetDeltaEnabled(on bool) { e.delta = on }

// SetTrustedOrders disables per-call permutation validation. The
// package's own search chains mutate a validated base permutation by
// swaps and shuffles, so every order they pass is a permutation by
// construction and the O(n) check per move is pure overhead; external
// callers should leave validation on — a non-permutation order then
// errors instead of corrupting the evaluator.
func (e *Evaluator) SetTrustedOrders(on bool) { e.trusted = on }

// captureAt checkpoints the scratch at position pos. While a
// delta-eligible candidate is being replayed (preserve=true) the
// reference's checkpoint is swapped aside into refCps first instead of
// being overwritten, so a later restoreRef can swap it back; cps always
// holds the current (candidate) state either way, which is what every
// commit path needs.
func (e *Evaluator) captureAt(pos, makespan int, preserve bool) {
	if preserve {
		e.cps[pos], e.refCps[pos] = e.refCps[pos], e.cps[pos]
	}
	e.capture(e.cps[pos], makespan)
}

// capture snapshots the scratch frontiers and the power profile into
// cp, reusing cp's backing arrays.
func (e *Evaluator) capture(cp *checkpoint, makespan int) {
	cp.makespan = makespan
	cp.fr = append(cp.fr[:0], e.s.fr...)
	e.s.profile.Snapshot(&cp.prof)
}

// rewind restores the scratch to the checkpoint before position k: the
// journalled link reservations of positions k..valid-1 are popped in
// reverse commit order (per-link LIFO discipline), the power profile is
// restored bitwise from checkpoint k's snapshot — one array copy, no
// matter how deep the rewind — and the interface frontiers are copied
// back from cps[k].
func (e *Evaluator) rewind(k int) int {
	mk := e.marks[k]
	for i := len(e.undo.links) - 1; i >= mk.links; i-- {
		e.s.lines.Pop(e.undo.links[i])
	}
	e.undo.links = e.undo.links[:mk.links]
	e.undo.res = e.undo.res[:mk.res]
	cp := e.cps[k]
	e.s.profile.Restore(&cp.prof)
	copy(e.s.fr, cp.fr)
	e.valid = k
	return cp.makespan
}

// divergence returns the first position where order differs from the
// committed prefix of the reference order.
func (e *Evaluator) divergence(order []int) int {
	k := 0
	lim := e.valid
	if len(order) < lim {
		lim = len(order)
	}
	for k < lim && order[k] == e.ref[k] {
		k++
	}
	return k
}

// checkPermutation rejects orders run would reject, up front: wrong
// length, out-of-range indices, repeats.
func (e *Evaluator) checkPermutation(order []int) error {
	if len(order) != len(e.m.cores) {
		return fmt.Errorf("core: explicit order covers %d of %d cores", len(order), len(e.m.cores))
	}
	e.seenGen++
	for _, ci := range order {
		if ci < 0 || ci >= len(e.m.cores) {
			return fmt.Errorf("core: order names core index %d outside [0,%d)", ci, len(e.m.cores))
		}
		if e.seen[ci] == e.seenGen {
			return fmt.Errorf("core: order repeats core %d", e.m.cores[ci].Core.ID)
		}
		e.seen[ci] = e.seenGen
	}
	return nil
}

// Evaluate scores order under the evaluator's variant rule and returns
// its makespan, replaying only the positions at or after the first
// difference from the previously evaluated order — and, for window
// moves against a fully committed reference, often only the changed
// window itself (see the delta path on the type comment). The pass
// aborts with pruned=true as soon as the partial makespan exceeds
// bound; the value returned is then the makespan right after the first
// placement that crossed the bound — exactly what the full-replay path
// reports, even when that placement sits inside the reused prefix or
// the fast-forwarded suffix (checkpoint makespans are monotone in
// position, so the crossing is found without replaying anything). A
// non-positive bound disables pruning. On error the prefix evaluated so
// far is retained, so infeasible neighbours cost only their divergent
// suffix too.
func (e *Evaluator) Evaluate(ctx context.Context, order []int, bound int) (ms int, pruned bool, err error) {
	if !e.trusted {
		if err := e.checkPermutation(order); err != nil {
			return 0, false, err
		}
	}
	if bound <= 0 {
		bound = noBound
	}
	k := e.divergence(order)
	e.m.stats.orders.Add(1)
	e.m.stats.recordLocality(k, len(order))
	e.m.stats.replayed.Add(uint64(k))

	// Delta attempt: the reference must be fully committed and the
	// change confined to a window [k..deltaJ] with a non-empty suffix
	// after it. The reference's tail — reservation records and journal
	// marks — is saved before the rewind discards it, both to compare
	// against and to restore from: a candidate the bound rejects is
	// rolled back so the evaluator keeps holding the fully committed
	// reference, which keeps the whole move stream delta-eligible
	// instead of only the first move after an acceptance.
	//
	// Before the windowed path, three answers that need no replay at
	// all: a no-op order is read off the final checkpoint; a prefix
	// that already crosses the bound is answered from the (monotone)
	// prefix checkpoints without even rewinding; and an adjacent
	// transposition is tried against the O(1) adjacent-swap rule,
	// which proves from the reference journal alone that the swapped
	// order reproduces the identical schedule. All three leave the
	// committed reference untouched on the pruned/no-op outcomes, so
	// the move stream stays delta-eligible move after move.
	deltaJ, deltaK := -1, -1
	n := len(order)
	if e.delta && e.valid == n {
		if k == n {
			// No-op: order is bitwise the committed reference.
			e.m.stats.deltaHits.Add(1)
			e.m.stats.deltaAdjacent.Add(1)
			final := e.cps[n].makespan
			if final <= bound {
				return final, false, nil
			}
			lo, hi := 1, n
			for lo < hi {
				mid := (lo + hi) / 2
				if e.cps[mid].makespan > bound {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			e.m.stats.pruned.Add(1)
			return e.cps[lo].makespan, true, nil
		}
		if e.cps[k].makespan > bound {
			// The reused prefix alone crosses the bound: answer from
			// the checkpoints and keep the reference fully committed.
			lo, hi := 1, k
			for lo < hi {
				mid := (lo + hi) / 2
				if e.cps[mid].makespan > bound {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			e.m.stats.pruned.Add(1)
			return e.cps[lo].makespan, true, nil
		}
		j := n - 1
		for j > k && order[j] == e.ref[j] {
			j--
		}
		if j == k+1 && order[k] == e.ref[k+1] && order[k+1] == e.ref[k] {
			// Adjacent transposition (an order differing in exactly two
			// positions always is one): try the O(1) rule. It works with
			// an empty suffix too, which is what recovers the lane
			// regime's tail swaps for the delta path.
			if ms, pruned, ok := e.adjacentSwap(order, k, bound); ok {
				return ms, pruned, nil
			}
			e.m.stats.fbAdjacent.Add(1)
		}
		switch {
		case j < n-1:
			deltaJ, deltaK = j, k
			e.refRes = append(e.refRes[:0], e.undo.res[e.marks[k].res:]...)
			e.refWinLen = e.marks[j+1].res - e.marks[k].res
			e.refMarks = append(e.refMarks[:0], e.marks[k+1:n+1]...)
		default:
			// The move touches the last position: no suffix exists to
			// splice, so only the adjacent rule could have resolved it.
			e.m.stats.fbNoSuffix.Add(1)
		}
	}

	makespan := e.rewind(k)

	if makespan > bound {
		// The reused prefix alone exceeds the bound: report the partial
		// makespan at the first crossing, as a full replay would.
		lo, hi := 1, k
		for lo < hi {
			mid := (lo + hi) / 2
			if e.cps[mid].makespan > bound {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		e.commitPrefix(order, k)
		e.m.stats.pruned.Add(1)
		return e.cps[lo].makespan, true, nil
	}

	for i := k; i < len(order); i++ {
		if err := ctx.Err(); err != nil {
			e.commitPrefix(order, i)
			return 0, false, err
		}
		end, err := e.m.place(e.s, e.v, order[i], nil, &e.undo)
		if err != nil {
			e.commitPrefix(order, i)
			return 0, false, err
		}
		e.marks[i+1] = evalMark{links: len(e.undo.links), res: len(e.undo.res)}
		if end > makespan {
			makespan = end
		}
		if i == deltaJ && makespan <= bound {
			// The window is fully replayed and cps[i+1] still holds the
			// reference's state after it: compare before capturing over
			// it. On a match the suffix is provably identical to the
			// reference's and is fast-forwarded from the journal.
			if e.deltaMatch(order, k, deltaJ, makespan) {
				return e.fastForward(order, k, deltaJ, bound)
			}
			deltaJ = -1
		}
		if makespan > bound {
			e.m.stats.pruned.Add(1)
			e.m.stats.placed.Add(uint64(i + 1 - k))
			if deltaK >= 0 {
				// A delta-eligible candidate the bound rejected: roll it
				// back and re-commit the reference from the saved journal
				// (the reference's suffix checkpoints are still intact),
				// so the next window move is delta-eligible too — crucially
				// including a crossing at the very last position, where
				// committing the rejected candidate would leave a partial
				// reference and force the next move into a full replay.
				// The returned partial makespan is already exact. Crossing
				// inside the window never replayed the suffix at all.
				e.restoreRef(deltaK, i)
				if deltaJ >= 0 {
					e.m.stats.deltaHits.Add(1)
				}
				return makespan, true, nil
			}
			e.captureAt(i+1, makespan, deltaK >= 0)
			e.commitPrefix(order, i+1)
			return makespan, true, nil
		}
		e.captureAt(i+1, makespan, deltaK >= 0)
	}
	e.commitPrefix(order, len(order))
	e.m.stats.placed.Add(uint64(len(order) - k))
	return makespan, false, nil
}

// deltaMatch reports whether replaying the changed window [k..j] of
// order reproduced the reference pass's state at position j+1 exactly,
// which proves the suffix would replay unchanged. Three checks, all
// exact:
//
//  1. The running makespan and every interface frontier
//     (free/activated/active) equal checkpoint j+1's.
//  2. Every window core committed the identical reservations it held in
//     the reference pass — same interface, same segment spans — so the
//     resource state is the same set of reservations.
//  3. The profile's load arrays are bitwise identical. With exact
//     power arithmetic (Model.exactDraws) this follows from check 2
//     alone: the same reservation set sums to the same integral loads
//     in any order. Otherwise no two window reservations that changed
//     relative commit order may overlap in time — overlapping
//     reservations sum into the same profile segments, and float
//     addition is order-sensitive; spans that do not overlap never
//     touch the same segment, so the suffix's feasibility decisions
//     cannot diverge even by an ulp.
func (e *Evaluator) deltaMatch(order []int, k, j, makespan int) bool {
	cp := e.cps[j+1]
	if makespan != cp.makespan {
		e.m.stats.fbFrontier.Add(1)
		return false
	}
	for i := range e.s.fr {
		if e.s.fr[i] != cp.fr[i] {
			e.m.stats.fbFrontier.Add(1)
			return false
		}
	}

	newRes := e.undo.res[e.marks[k].res:]
	if len(newRes) != e.refWinLen {
		e.m.stats.fbReservation.Add(1)
		return false
	}
	// Per-core identity: each window core's contiguous reservation
	// group must match its reference group elementwise. Core groups are
	// contiguous in both logs (a placement commits its whole chain),
	// and a window core appears exactly once.
	e.resCtr++
	for off := 0; off < e.refWinLen; {
		c := e.refRes[off].core
		e.resGen[c] = e.resCtr
		e.resOff[c] = off
		for off < e.refWinLen && e.refRes[off].core == c {
			off++
		}
	}
	for off := 0; off < len(newRes); {
		c := newRes[off].core
		if e.resGen[c] != e.resCtr {
			e.m.stats.fbReservation.Add(1)
			return false
		}
		ro := e.resOff[c]
		for off < len(newRes) && newRes[off].core == c {
			if ro >= e.refWinLen || e.refRes[ro] != newRes[off] {
				e.m.stats.fbReservation.Add(1)
				return false
			}
			ro++
			off++
		}
		if ro < e.refWinLen && e.refRes[ro].core == c {
			e.m.stats.fbReservation.Add(1)
			return false // reference group is longer than the new one
		}
	}

	// Reordered pairs must be span-disjoint unless power arithmetic is
	// exact. Window positions p < q in the new order whose cores sat in
	// the opposite order in the reference commit their reservations in
	// swapped sequence; if any of their spans overlap, the profile sums
	// could differ in rounding and the proof above would not cover the
	// suffix.
	if e.m.exactDraws {
		return true
	}
	for q := k; q <= j; q++ {
		e.resPos[e.ref[q]] = q
	}
	for p := k; p <= j; p++ {
		a := order[p]
		for q := p + 1; q <= j; q++ {
			b := order[q]
			if e.resPos[a] > e.resPos[b] && e.groupsOverlap(a, b) {
				e.m.stats.fbOverlap.Add(1)
				return false
			}
		}
	}
	return true
}

// groupsOverlap reports whether any reservation span of core a overlaps
// any span of core b, both read from the reference window log (the
// per-core identity check has already proven the new spans equal).
func (e *Evaluator) groupsOverlap(a, b int) bool {
	for i := e.resOff[a]; i < e.refWinLen && e.refRes[i].core == a; i++ {
		for q := e.resOff[b]; q < e.refWinLen && e.refRes[q].core == b; q++ {
			if e.refRes[i].start < e.refRes[q].end && e.refRes[q].start < e.refRes[i].end {
				return true
			}
		}
	}
	return false
}

// adjacentSwap resolves an adjacent transposition of reference
// positions k and k+1 in O(interfaces + segments), with no replay and
// no rescans, by proving from the reference journal that the swapped
// order commits the identical schedule. With a = ref[k], b = ref[k+1],
// the proof obligations are:
//
//   - a and b sit on different interfaces, and commit order cannot
//     change the resource state even by an ulp: either the model's
//     power arithmetic is exact (integral draws — profile sums are
//     order-invariant, and the reference pass already certified the
//     two chains' coexistence on every shared segment and link), or
//     every a-span is time-disjoint from every b-span so the two
//     chains never touch the same profile segment at all.
//   - b's interface is already active at checkpoint k and is not
//     activated or fronted by a, so b sees the same frontier placed
//     first as it did placed second.
//   - b's reference chain is tight — first segment on its frontier,
//     segments back-to-back — so it sits on its absolute lower bound
//     and removing a's reservations cannot let it start earlier.
//   - No other interface's frontier lower bound at checkpoint k can
//     beat b's placement key under the (key, index) tie-break, so b's
//     interface choice is stable placed first.
//   - Placed second, a's only new competitor is b's newly activated
//     processor interface; its lower bound must lose to a's reference
//     key too. Every other interface only looks worse (b's frontier
//     moved later, b's reservations added), and a's own chain
//     reproduces because the candidate's feasible sets are subsets of
//     the reference's that still contain a's (greedy-minimal) chain.
//
// When every obligation holds the swapped order provably reproduces
// the reference state at k+2 and the identical suffix, so the result
// is read off the reference checkpoints: the only running makespans
// that differ are at positions k and k+1, and they are recomputed
// from the chain ends for the bound-crossing search. A pruned verdict
// returns without touching any state (the reference stays committed);
// an accepted one re-commits the journal tail in the swapped order via
// commitAdjacent. Any failed obligation reports ok=false and the move
// falls back to the windowed delta or plain suffix replay.
func (e *Evaluator) adjacentSwap(order []int, k, bound int) (ms int, pruned, ok bool) {
	n := len(order)
	a, b := e.ref[k], e.ref[k+1]
	aRecs := e.undo.res[e.marks[k].res:e.marks[k+1].res]
	bRecs := e.undo.res[e.marks[k+1].res:e.marks[k+2].res]
	if len(aRecs) == 0 || len(bRecs) == 0 {
		return 0, false, false
	}
	ifA, ifB := aRecs[0].iface, bRecs[0].iface
	cpK := e.cps[k]
	sibB := e.m.selfIface[b]
	if ifA == ifB || !cpK.fr[ifB].active || sibB == ifA {
		return 0, false, false
	}
	if !e.m.exactDraws {
		// Inexact power arithmetic: only span-disjoint chains are safe
		// to reorder, because overlapping spans sum into the same
		// profile segments and float addition is order-sensitive.
		for i := range aRecs {
			for q := range bRecs {
				if aRecs[i].start < bRecs[q].end && bRecs[q].start < aRecs[i].end {
					return 0, false, false
				}
			}
		}
	}
	fromB := cpK.fr[ifB].free
	if cpK.fr[ifB].activated > fromB {
		fromB = cpK.fr[ifB].activated
	}
	if bRecs[0].start != fromB {
		return 0, false, false
	}
	for i := 1; i < len(bRecs); i++ {
		if bRecs[i].start != bRecs[i-1].end {
			return 0, false, false
		}
	}
	endB := bRecs[len(bRecs)-1].end
	keyB := bRecs[0].start
	if e.v == LookaheadFastestFinish {
		keyB = endB
	}
	for ii, d := range e.m.scanDur[b] {
		f := &cpK.fr[ii]
		if d < 0 || ii == ifB || !f.active {
			continue
		}
		from := f.free
		if f.activated > from {
			from = f.activated
		}
		lower := from
		if e.v == LookaheadFastestFinish {
			lower += d
		}
		if lower < keyB || (lower == keyB && ii < ifB) {
			return 0, false, false
		}
	}
	endA := aRecs[len(aRecs)-1].end
	keyA := aRecs[0].start
	if e.v == LookaheadFastestFinish {
		keyA = endA
	}
	if sibB >= 0 {
		if d := e.m.scanDur[a][sibB]; d >= 0 {
			lower := endB
			if e.v == LookaheadFastestFinish {
				lower += d
			}
			if lower < keyA || (lower == keyA && sibB < ifA) {
				return 0, false, false
			}
		}
	}

	// Proven: the swap is a schedule no-op. Candidate running makespans
	// are the reference checkpoints' except at k (after placing b) and
	// k+1 (after placing a, which equals checkpoint k+2's).
	mK := cpK.makespan
	if endB > mK {
		mK = endB
	}
	final := e.cps[n].makespan
	ms = final
	if final > bound {
		pruned = true
		switch {
		case mK > bound:
			ms = mK
		case e.cps[k+2].makespan > bound:
			ms = e.cps[k+2].makespan
		default:
			lo, hi := k+3, n
			for lo < hi {
				mid := (lo + hi) / 2
				if e.cps[mid].makespan > bound {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			ms = e.cps[lo].makespan
		}
	}
	e.m.stats.deltaHits.Add(1)
	e.m.stats.deltaAdjacent.Add(1)
	e.m.stats.replayed.Add(uint64(n - k))
	if pruned {
		// Rejected by the bound: leave the committed reference exactly
		// as it was, so the next move is still delta-eligible.
		e.m.stats.pruned.Add(1)
		return ms, true, true
	}
	e.commitAdjacent(order, k, endB, sibB, ifB)
	return ms, false, true
}

// commitAdjacent makes the swapped order the committed reference after
// a successful adjacentSwap. The physical schedule is unchanged, but
// the journals must reflect the new commit order, so the tail is saved,
// rewound to k, and re-committed verbatim with b's chain first: the
// reordered chains commit the identical reservation set, so the profile
// state stays bitwise identical (span-disjoint chains never touch the
// same segment; overlapping ones are only reordered under exact power
// arithmetic, where sums are order-invariant). Every journal records a
// fixed count of entries per reservation regardless of commit order —
// one resRec per segment, one link entry per link — so the per-position
// journal counts, and therefore marks[k+2..n], are preserved, and the
// suffix checkpoints' profile snapshots stay valid. Only checkpoint k+1
// and marks[k+1] describe genuinely different intermediate state: b's
// chain is re-summed onto checkpoint k's profile (recommit) to build
// its snapshot, while a's chain and the suffix re-enter the journals
// without profile work (recommitRes) and the final profile is installed
// from checkpoint n's snapshot, bitwise equal to the re-summed state.
func (e *Evaluator) commitAdjacent(order []int, k, endB, sibB, ifB int) {
	n := len(order)
	aLen := e.marks[k+1].res - e.marks[k].res
	bLen := e.marks[k+2].res - e.marks[k+1].res
	e.refRes = append(e.refRes[:0], e.undo.res[e.marks[k].res:]...)
	e.rewind(k)
	e.recommit(e.refRes[aLen : aLen+bLen])
	e.marks[k+1] = evalMark{links: len(e.undo.links), res: len(e.undo.res)}

	prev := e.cps[k]
	mK := prev.makespan
	if endB > mK {
		mK = endB
	}
	cp := e.cps[k+1]
	cp.makespan = mK
	cp.fr = append(cp.fr[:0], prev.fr...)
	cp.fr[ifB].free = endB
	if sibB >= 0 {
		cp.fr[sibB].active = true
		cp.fr[sibB].activated = endB
	}
	e.s.profile.Snapshot(&cp.prof)

	e.recommitRes(e.refRes[:aLen])
	e.recommitRes(e.refRes[aLen+bLen:])

	fin := e.cps[n]
	copy(e.s.fr, fin.fr)
	e.s.profile.Restore(&fin.prof)
	e.commitPrefix(order, n)
}

// recommit replays saved reservation records straight into the journals
// and the power profile — link spans re-added, loads re-summed with the
// exact arithmetic of a fresh placement, no rescans.
func (e *Evaluator) recommit(recs []resRec) {
	for idx := range recs {
		r := recs[idx]
		c := &e.m.cands[r.core][r.iface]
		for _, id := range c.links {
			e.s.lines.Add(id, noc.Span{Start: r.start, End: r.end})
			e.undo.links = append(e.undo.links, id)
		}
		e.s.profile.Add(r.start, r.end, c.draw)
		e.undo.res = append(e.undo.res, r)
	}
}

// recommitRes is recommit without the profile work, for callers that
// install the final profile state from a checkpoint snapshot instead of
// re-summing it: only the link spans and reservation records re-enter
// the journals.
func (e *Evaluator) recommitRes(recs []resRec) {
	for idx := range recs {
		r := recs[idx]
		c := &e.m.cands[r.core][r.iface]
		for _, id := range c.links {
			e.s.lines.Add(id, noc.Span{Start: r.start, End: r.end})
			e.undo.links = append(e.undo.links, id)
		}
		e.undo.res = append(e.undo.res, r)
	}
}

// fastForward finishes a successful delta match. An accepted candidate
// re-commits the reference suffix straight from the saved reservation
// log — link spans re-added, no interface rescans — and restores the
// frontiers and the power profile from the (still valid) reference
// checkpoint at n: the match proved the candidate's window reproduced
// the reference's profile state bitwise, so the reference's final
// snapshot IS the candidate's final profile, installed with one copy
// instead of re-summing the suffix. The candidate is left fully
// committed so the next window move is delta-eligible. When the reference's monotone checkpoint
// makespans cross the bound inside the suffix the candidate is rejected
// anyway, so instead of committing it — which would make the caller's
// swap-back the next divergence and poison the following move's match —
// the replayed window is rolled back and the reference re-committed:
// the evaluator keeps holding the caller's current order, and the
// reported makespan is still the crossing checkpoint's, exactly what a
// replay would report.
func (e *Evaluator) fastForward(order []int, k, j, bound int) (int, bool, error) {
	n := len(order)
	final := e.cps[n].makespan
	e.m.stats.placed.Add(uint64(j + 1 - k))
	e.m.stats.replayed.Add(uint64(n - (j + 1)))
	e.m.stats.deltaHits.Add(1)
	if final > bound {
		lo, hi := j+2, n
		for lo < hi {
			mid := (lo + hi) / 2
			if e.cps[mid].makespan > bound {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		e.restoreRef(k, j)
		e.m.stats.pruned.Add(1)
		return e.cps[lo].makespan, true, nil
	}

	e.recommitRes(e.refRes[e.refWinLen:])
	cp := e.cps[n]
	copy(e.s.fr, cp.fr)
	e.s.profile.Restore(&cp.prof)
	e.commitPrefix(order, n)
	return final, false, nil
}

// restoreRef rebuilds the fully committed reference after a
// delta-eligible candidate was resolved without needing its state: the
// candidate's journalled reservations are popped back to the window
// start and the reference's tail re-committed verbatim from the saved
// reservation log, its journal marks copied back, and its frontiers
// and power profile restored from the final checkpoint — the profile
// with one snapshot copy, bitwise the state the reference held, no
// re-summing. The evaluator is indistinguishable from one that never
// saw the candidate. hi is the last position whose checkpoint the
// candidate's captures displaced into refCps; those are swapped back
// in.
func (e *Evaluator) restoreRef(k, hi int) {
	n := len(e.ref)
	for p := k + 1; p <= hi; p++ {
		e.cps[p], e.refCps[p] = e.refCps[p], e.cps[p]
	}
	mk := e.marks[k]
	for i := len(e.undo.links) - 1; i >= mk.links; i-- {
		e.s.lines.Pop(e.undo.links[i])
	}
	e.undo.links = e.undo.links[:mk.links]
	e.undo.res = e.undo.res[:mk.res]
	e.recommitRes(e.refRes)
	copy(e.marks[k+1:n+1], e.refMarks)
	cp := e.cps[n]
	copy(e.s.fr, cp.fr)
	e.s.profile.Restore(&cp.prof)
	e.valid = n
}

// commitPrefix records that the first n positions of order are now the
// committed state of the scratch.
func (e *Evaluator) commitPrefix(order []int, n int) {
	e.ref = append(e.ref[:0], order...)
	e.valid = n
}
