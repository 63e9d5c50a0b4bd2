package core

import (
	"math"
	"slices"

	"repro/internal/grid"
)

// MatrixRow is one not-yet-placed task's finish-time profile across the
// candidate set: the best candidate, its FT, and the second-best FT (the
// ingredient of the sufferage value).
type MatrixRow struct {
	Task     *grid.TaskInstance
	RPM      float64
	Makespan float64
	BestIdx  int
	BestFT   float64
	SecondFT float64
}

// Sufferage returns how much the task suffers if denied its best node.
func (r MatrixRow) Sufferage() float64 {
	if math.IsInf(r.SecondFT, 1) {
		return 0 // single candidate: no alternative to compare against
	}
	return r.SecondFT - r.BestFT
}

// MatrixPhase1 is the decentralized min-min / max-min / sufferage first
// phase (Maheswaran et al., adapted to workflows as in Section IV.A):
// build the FT matrix over (schedule point x candidate), repeatedly pick
// one row by the family rule, place the task on its best node, update that
// node's load, and re-derive the rows.
//
// A placement changes only the chosen candidate's load, so the matrix is
// filled once and afterwards only that candidate's column is recomputed:
// O(T x C + T^2) FinishTime calls per round instead of the O(T^2 x C) of a
// full recompute, with the same picks in the same order.
type MatrixPhase1 struct {
	Label string
	// Pick returns the index of the chosen row.
	Pick func(rows []MatrixRow) int

	candBuf []Candidate // per-instance scratch; one engine thread per run
	rowBuf  []MatrixRow
	ftBuf   []float64 // FT matrix: row i's C finish times at [i*C, (i+1)*C)
}

// Name implements grid.Phase1Scheduler.
func (s *MatrixPhase1) Name() string { return s.Label }

// Schedule implements grid.Phase1Scheduler.
func (s *MatrixPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	views := Analyze(g, home)
	if len(views) == 0 {
		return
	}
	s.candBuf = AppendCandidates(g, home, s.candBuf)
	cands := s.candBuf
	if len(cands) == 0 {
		return
	}
	rows, ft := s.rowBuf[:0], s.ftBuf[:0]
	defer func() { s.rowBuf, s.ftBuf = rows, ft }()
	for _, rt := range Flatten(views) {
		rows = append(rows, MatrixRow{Task: rt.Task, RPM: rt.RPM, Makespan: rt.Makespan})
	}
	refill, col := true, -1 // what changed since the rows were derived
	for {
		c := len(cands)
		// A failed dispatch may revert a shared precedent and demote other
		// pending tasks back to blocked; drop them from this pass.
		kept := 0
		for i := range rows {
			if rows[i].Task.State != grid.TaskSchedulePoint {
				continue
			}
			if kept != i {
				rows[kept] = rows[i]
				if !refill {
					copy(ft[kept*c:(kept+1)*c], ft[i*c:(i+1)*c])
				}
			}
			kept++
		}
		rows = rows[:kept]
		if len(rows) == 0 {
			return
		}
		if refill {
			ft = slices.Grow(ft[:0], len(rows)*c)[:len(rows)*c]
		} else {
			ft = ft[:len(rows)*c]
		}
		for i := range rows {
			fts := ft[i*c : (i+1)*c]
			switch {
			case refill:
				for j := range cands {
					fts[j] = FinishTime(g, rows[i].Task, cands[j])
				}
			case col >= 0:
				fts[col] = FinishTime(g, rows[i].Task, cands[col])
			}
			rows[i].derive(fts)
		}
		refill, col = false, -1

		pick := s.Pick(rows)
		if pick < 0 || pick >= len(rows) {
			return
		}
		row := rows[pick]
		if row.BestIdx < 0 {
			return
		}
		row.Task.SufferageAtDispatch = row.Sufferage()
		if !dispatchTo(g, home, row.Task, cands, row.BestIdx, row.RPM, row.Makespan) {
			// Stale record: drop the vanished candidate, keep the task
			// pending, and rebuild the matrix.
			cands = removeCandidate(cands, row.BestIdx)
			if len(cands) == 0 {
				return
			}
			refill = true
			continue
		}
		rows = append(rows[:pick], rows[pick+1:]...)
		ft = append(ft[:pick*c], ft[(pick+1)*c:]...)
		col = row.BestIdx
	}
}

// derive sets the row's best candidate, best FT and second-best FT from
// its finish times, scanned in candidate order: the first strict minimum
// wins, so ties go to the lower candidate index.
func (r *MatrixRow) derive(fts []float64) {
	r.BestIdx, r.BestFT, r.SecondFT = -1, math.Inf(1), math.Inf(1)
	for i, ft := range fts {
		switch {
		case ft < r.BestFT:
			r.SecondFT = r.BestFT
			r.BestFT = ft
			r.BestIdx = i
		case ft < r.SecondFT:
			r.SecondFT = ft
		}
	}
}

// PickMinMin selects the row whose best FT is smallest (ties: first row).
func PickMinMin(rows []MatrixRow) int {
	best := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].BestFT < rows[best].BestFT {
			best = i
		}
	}
	return best
}

// PickMaxMin selects the row whose best FT is largest.
func PickMaxMin(rows []MatrixRow) int {
	best := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].BestFT > rows[best].BestFT {
			best = i
		}
	}
	return best
}

// PickSufferage selects the row with the largest sufferage.
func PickSufferage(rows []MatrixRow) int {
	best := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].Sufferage() > rows[best].Sufferage() {
			best = i
		}
	}
	return best
}
