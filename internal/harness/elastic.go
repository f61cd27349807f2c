package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"rest/internal/obs"
	"rest/internal/persist"
	"rest/internal/workload"
)

// The elastic sweep pool: work-stealing over the shared artifact store.
//
// Every worker sees the same unit list (functional identities in
// first-appearance grid order) and claims units one lease at a time on the
// store's lock plane; which worker runs what is decided by the pool as it
// goes, so any number of workers may join late or die mid-sweep. A
// completed unit is recorded by a tiny completion marker in the store's meta
// namespace; the grid is drained when every unit has one. Recovery is built
// from the same two primitives —
//
//   - a worker that dies stops renewing its leases, they age stale, and any
//     idle worker steals the units and recomputes only what the dead worker
//     never published (its finished cells are result-store hits);
//   - a worker whose lease is stolen while it still runs (it was presumed
//     dead but wasn't) observes the loss and abandons the unit without
//     publishing its marker — publishing under a lost lease would race the
//     thief. The cells it already computed are harmless: content-addressed
//     stores make duplicate publication idempotent, so bytes never differ.
//
// Idle workers do not poll-spin: they park on the store's epoch long-poll
// (persist.Cache.WaitChange) and wake when a marker lands or a lease moves.
// Every coordination failure fails open in the store's usual direction —
// an unanswerable lock plane grants the claim (worst case a duplicated
// unit), an unlistable meta namespace retries at the next wake — so chaos
// degrades the pool to recompute, never to a wrong byte or a hang.
//
// The unit of stealing is the functional identity, not the cell: all cells
// of a unit share one captured trace, so one worker captures it and replays
// the unit's other cells from process memory. Traces never leave the
// process, so splitting a unit across workers would make each of them
// re-execute the same functional run.
//
// This file holds only the scheduling — claims, markers, lease renewal and
// the epoch wake; cells run on the sweep's per-cell runner (parallel.go).

// ElasticStats summarizes one worker's participation in an elastic pool.
type ElasticStats struct {
	Units      int // steal units in the grid
	Claimed    int // claims granted to this worker (incl. steals and skips)
	Steals     int // claims acquired by breaking a stale holder's lease
	Done       int // units this worker computed and marked complete
	Skipped    int // claims released because the unit was already marked
	LeaseLost  int // units abandoned after losing the lease mid-unit
	DrainWaits int // times this worker parked waiting on the pool
	CellsRun   int // grid cells this worker executed
}

// elasticUnit is one steal unit: a functional identity and the grid indices
// of the cells sharing it.
type elasticUnit struct {
	key   traceKey
	cells []int
}

// elasticUnits enumerates the grid's units in first-appearance order.
func elasticUnits(cells []gridCell, scale int64, budget uint64) []elasticUnit {
	index := make(map[traceKey]int)
	var units []elasticUnit
	for i, c := range cells {
		k := cellTraceKey(c.wl.Name, c.cfg, scale, budget)
		u, seen := index[k]
		if !seen {
			u = len(units)
			index[k] = u
			units = append(units, elasticUnit{key: k})
		}
		units[u].cells = append(units[u].cells, i)
	}
	return units
}

// UnitCount reports how many steal units a grid partitions into. Exposed
// for benchmarks and tooling that watch a pool drain marker by marker.
func UnitCount(wls []workload.Workload, cfgs []BinaryConfig, scale int64, budget uint64) int {
	return len(elasticUnits(gridCells(wls, cfgs), scale, budget))
}

// ElasticMarkerPrefix namespaces completion markers within the store's meta
// objects.
const ElasticMarkerPrefix = "elastic-"

// funcIdentity digests a cell's functional identity — the same fields as the
// in-memory traceKey, spelled canonically — into the address of its elastic
// unit.
func funcIdentity(k traceKey) persist.ID {
	return persist.SumID(fmt.Sprintf(
		"trace|wl=%s|scale=%d|flavour=%s|stack=%t|checks=%t|tw=%d|rz=%d|mode=%d|intercept=%d|budget=%d",
		k.workload, k.scale, k.pass.Flavour, k.pass.StackProtection, k.pass.AccessChecks,
		k.pass.TokenWidth, k.pass.RedzoneBytes, k.mode, k.intercept, k.budget))
}

// elasticGridID digests the units — each one's functional identity and the
// timing configurations of its cells — so claim and marker names are scoped
// to one exact grid: two different sweeps sharing a store can both run
// elastically without touching each other's units, even when they share
// every functional identity and differ only in timing rows.
func elasticGridID(units []elasticUnit, cells []gridCell, scale int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "elastic|v2|scale=%d|units=%d\n", scale, len(units))
	for _, u := range units {
		io.WriteString(h, funcIdentity(u.key).String())
		for _, gi := range u.cells {
			io.WriteString(h, "|"+timingIdentity(cells[gi].cfg))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func elasticMarkerName(grid string, u int) string {
	return fmt.Sprintf("%s%s-u%03d", ElasticMarkerPrefix, grid, u)
}

func elasticClaimName(grid string, u int) string {
	return fmt.Sprintf("claim-%s-u%03d", grid, u)
}

// elasticWaitBound caps one idle park. Short enough that stale-lease
// takeover is probed about once a second even when no epoch event fires
// (a killed worker produces none), long enough that a parked worker costs
// one request a second, not a polling storm.
const elasticWaitBound = time.Second

// unitResult is one finished (or abandoned) unit's report to the
// coordinator.
type unitResult struct {
	unit      int
	done      bool // completion marker published
	leaseLost bool
	cellsRun  int
}

// runElastic is RunMatrixParallel's work-stealing path (opt.Elastic). The
// returned Matrix holds the cells this worker computed — a pool worker's
// view is partial by construction — and the full report is any plain run
// over the shared store.
func (s *sweep) runElastic() (*Matrix, error) {
	tc := s.opt.TraceCache
	var store *persist.Cache
	if tc != nil {
		store = tc.diskStore()
	}
	if store == nil {
		return nil, errors.New("harness: an elastic sweep needs a trace cache with an attached shared store")
	}
	units := elasticUnits(s.cells, s.scale, s.opt.CellInstrBudget)
	grid := elasticGridID(units, s.cells, s.scale)

	workers := s.opt.EffectiveWorkers()
	workerIDs := make(chan int, workers)
	for w := 0; w < workers; w++ {
		workerIDs <- w
	}

	workerTag := fmt.Sprintf("pid-%d", os.Getpid())
	unitDone := make(chan unitResult, len(units))
	var wg sync.WaitGroup

	runUnit := func(ui int, claim *persist.Claim) {
		defer wg.Done()
		u := units[ui]
		tc.planUnit(u.key, len(u.cells))
		res := unitResult{unit: ui}
		var uwg sync.WaitGroup
		for _, gi := range u.cells {
			select {
			case <-claim.Lost():
				// The lease was stolen: the thief owns this unit now. Forfeit
				// the remaining planned uses and leave the cells uncomputed —
				// whatever we already published is idempotent, and the marker
				// below stays unwritten.
				res.leaseLost = true
				tc.forfeit(u.key)
				continue
			default:
			}
			if s.ctx.Err() != nil {
				s.skip(0, gi)
				continue
			}
			w := <-workerIDs
			res.cellsRun++
			uwg.Add(1)
			go func() {
				defer func() {
					workerIDs <- w
					uwg.Done()
				}()
				s.run(w, gi)
			}()
		}
		uwg.Wait()
		if !res.leaseLost && s.ctx.Err() == nil {
			// One synchronous renewal right before publishing: a worker whose
			// lease was stolen since the last background renewal must not
			// mark the unit done (the thief is recomputing it). Any other
			// renewal failure fails open — an unanswerable lock plane never
			// blocks publication, it only risks a duplicate.
			if err := claim.Renew(); errors.Is(err, persist.ErrLeaseLost) {
				res.leaseLost = true
			} else {
				marker := fmt.Sprintf("{\"unit\":%d,\"cells\":%d,\"worker\":%q}\n",
					ui, len(u.cells), workerTag)
				if store.PutMarker(elasticMarkerName(grid, ui), []byte(marker)) == nil {
					res.done = true
				}
			}
		}
		claim.Release()
		unitDone <- res
	}

	// The wake goroutine turns the store's epoch long-poll into a channel
	// the coordinator can select on; without an epoch plane (a directory
	// store) WaitChange degrades to a bounded poll tick.
	wake := make(chan struct{}, 1)
	stopWake := make(chan struct{})
	go func() {
		var epoch uint64
		for {
			select {
			case <-stopWake:
				return
			default:
			}
			epoch = store.WaitChange(epoch, elasticWaitBound)
			select {
			case wake <- struct{}{}:
			case <-stopWake:
				return
			}
		}
	}()
	defer close(stopWake)

	stats := ElasticStats{Units: len(units)}
	markerDone := make([]bool, len(units))
	doneCount := 0
	inflight := make([]bool, len(units))
	slotsFree := workers

	scan := func() {
		names, err := store.ListMarkers(ElasticMarkerPrefix + grid + "-")
		if err != nil {
			return // transient: the next wake rescans
		}
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		for ui := range units {
			if !markerDone[ui] && set[elasticMarkerName(grid, ui)] {
				markerDone[ui] = true
				doneCount++
			}
		}
	}
	handle := func(r unitResult) {
		inflight[r.unit] = false
		slotsFree++
		stats.CellsRun += r.cellsRun
		if r.leaseLost {
			stats.LeaseLost++
		}
		if r.done {
			stats.Done++
			if !markerDone[r.unit] {
				markerDone[r.unit] = true
				doneCount++
			}
		}
	}
	drainFinished := func() {
		for {
			select {
			case r := <-unitDone:
				handle(r)
			default:
				return
			}
		}
	}

	scan()
	for doneCount < len(units) && s.ctx.Err() == nil {
		progress := false
		for ui := range units {
			if slotsFree == 0 {
				break
			}
			if markerDone[ui] || inflight[ui] {
				continue
			}
			claim, ok := store.TryClaim(elasticClaimName(grid, ui))
			if !ok {
				continue // a live worker holds it; steal only when stale
			}
			stats.Claimed++
			if claim.Stolen {
				stats.Steals++
			}
			// Re-check under the claim: the unit may have completed between
			// our last scan and this grant. This is what guarantees a
			// published unit is never recomputed — the marker goes up before
			// its claim goes down, so any later claimant sees it here.
			if _, err := store.GetMarker(elasticMarkerName(grid, ui)); err == nil {
				claim.Release()
				markerDone[ui] = true
				doneCount++
				stats.Skipped++
				progress = true
				continue
			}
			inflight[ui] = true
			slotsFree--
			progress = true
			wg.Add(1)
			go runUnit(ui, claim)
		}
		drainFinished()
		if doneCount >= len(units) || progress {
			continue
		}
		// Nothing claimable: every remaining unit is held by a live worker
		// (or the slots are full). Park until a unit finishes here or the
		// store's state moves (a marker lands, a lease ages out).
		select {
		case r := <-unitDone:
			handle(r)
		case <-wake:
			stats.DrainWaits++
			scan()
		case <-s.ctx.Done():
		}
	}
	wg.Wait()
	drainFinished()

	m, err := s.assemble(func(r *obs.Registry) {
		// Pool participation counters. They describe scheduling (who claimed
		// what when), so like the disk counters they sit outside the
		// byte-identical-reports contract.
		r.Counter("harness.elastic.units").Add(uint64(stats.Units))
		r.Counter("harness.elastic.claimed").Add(uint64(stats.Claimed))
		r.Counter("harness.elastic.steals").Add(uint64(stats.Steals))
		r.Counter("harness.elastic.done").Add(uint64(stats.Done))
		r.Counter("harness.elastic.skipped").Add(uint64(stats.Skipped))
		r.Counter("harness.elastic.lease_lost").Add(uint64(stats.LeaseLost))
		r.Counter("harness.elastic.drain_waits").Add(uint64(stats.DrainWaits))
		r.Counter("harness.elastic.cells").Add(uint64(stats.CellsRun))
		r.Counter("harness.elastic.cells_total").Add(uint64(len(s.cells)))
	})
	if s.opt.OnElastic != nil {
		s.opt.OnElastic(stats)
	}
	return m, err
}
