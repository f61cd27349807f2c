package harness

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strconv"

	"rest/internal/cache"
	"rest/internal/cpu"
	"rest/internal/obs"
	"rest/internal/persist"
	"rest/internal/workload"
	"rest/internal/world"
)

// The persistent tier of the trace cache. The in-memory cache dies with the
// process: every restbench invocation would re-time the whole grid.
// AttachDisk extends it across processes with the result store: a cell
// whose full identity (ModelVersion × functional identity × timing config,
// with the format version in the file header) was ever completed cleanly
// returns its memoized cpu.Stats without building a world at all, so a
// second run of an unchanged sweep is almost pure I/O. Every clean cell
// computed here is stored for the next process, unless the store already
// holds it.
//
// Traces are not persisted. Replaying a stored trace lost to re-executing
// the cell on the block engine in every measured pair, so an unshared cell
// just streams; captures live only in memory, for siblings within one
// sweep.
//
// The determinism contract is unchanged: the result codec round-trips
// cpu.Stats bit-exactly (IPC as IEEE-754 bits), and every disk failure —
// miss, corruption, version skew, an unreadable file — degrades to
// recompute (and, in read-write mode, rewrite), so cold-cache, warm-cache
// and cache-off sweeps render byte-identical reports. A cell that needs a
// metric registry (CellLimits.Metrics, which the micro-stats path sets) is
// never served from the store: a file carries no registry, and warm and
// cold reports would diverge. It still reads the store, counting a hit or a
// miss, to learn whether it holds its result, and stores the result (for
// the cells that can be served) only when it does not, so a warm rerun
// writes nothing.

// AttachDisk backs the trace cache with a persistent store. Read-only or
// read-write behaviour follows how the persist cache was opened. Call before
// the first sweep; the counters it accumulates surface as
// harness.diskcache.* metrics and via DiskCounters.
func (tc *TraceCache) AttachDisk(pc *persist.Cache) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.disk = pc
}

// DiskCounters reports the attached persistent store's activity (zero value
// when none is attached).
func (tc *TraceCache) DiskCounters() persist.Counters {
	tc.mu.Lock()
	pc := tc.disk
	tc.mu.Unlock()
	if pc == nil {
		return persist.Counters{}
	}
	return pc.Counters()
}

// timingIdentity digests a cell's timing-only knobs: the core choice and the
// literal CPU/cache overrides, each spelled as encoding/json's Marshal spells
// it (fields in declaration order), as every earlier build wrote them, so
// the stores those builds filled stay warm. Two spellings that differ only
// in defaulted fields digest differently — that can only cost a miss, never
// return a wrong result.
func timingIdentity(cfg BinaryConfig) string {
	b := strconv.AppendBool([]byte("inorder="), cfg.InOrder)
	b = append(b, "|cpu="...)
	if cfg.CPU != nil {
		b = appendJSON(b, reflect.ValueOf(*cfg.CPU))
	} else {
		b = append(b, "default"...)
	}
	b = append(b, "|hier="...)
	if cfg.Hier != nil {
		b = appendJSON(b, reflect.ValueOf(*cfg.Hier))
	} else {
		b = append(b, "default"...)
	}
	return string(b)
}

// appendJSON appends v as encoding/json's Marshal spells it, for the kinds
// a timing config is made of: structs of untagged fields, booleans, integers
// and strings. Like Marshal it skips unexported fields. Any other kind, or
// an embedded or tagged field, can only come with a new config field, and
// panics here; TestTimingSpellingMatchesJSON, which perturbs every field,
// then names it.
func appendJSON(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		b = append(b, '{')
		first := true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Anonymous || f.Tag != "" {
				panic(fmt.Sprintf("harness: timing identity cannot spell %s.%s, an embedded or tagged field", t, f.Name))
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = obs.AppendJSONString(b, f.Name)
			b = append(b, ':')
			b = appendJSON(b, v.Field(i))
		}
		return append(b, '}')
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.String:
		return obs.AppendJSONString(b, v.String())
	}
	panic(fmt.Sprintf("harness: timing identity cannot spell a %s", v.Type()))
}

// timingKey is what timingIdentity reads of a config, held by value: two
// configs whose overrides are equal but distinct pointers share one key,
// and a config edited after its first cell cannot reach a stale spelling.
type timingKey struct {
	inOrder         bool
	hasCPU, hasHier bool
	cpu             cpu.Config
	hier            cache.HierConfig
}

// timingID returns timingIdentity(cfg), spelled once per distinct timing
// config: a sweep has a handful of them and hundreds of cells, and the
// JSON would otherwise be most of what a cell served from the store
// allocates.
func (tc *TraceCache) timingID(cfg BinaryConfig) string {
	key := timingKey{inOrder: cfg.InOrder}
	if cfg.CPU != nil {
		key.hasCPU, key.cpu = true, *cfg.CPU
	}
	if cfg.Hier != nil {
		key.hasHier, key.hier = true, *cfg.Hier
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	id, ok := tc.timingIDs[key]
	if !ok {
		id = timingIdentity(cfg)
		tc.timingIDs[key] = id
	}
	return id
}

// ModelVersion names the simulator's behaviour in every result identity.
// The identity spells a cell's workload and its configuration, but not the
// code that simulates them or the defaults a "default" config resolves to,
// so a change that moves any simulated number must bump this: every stored
// result then misses once and is recomputed, where it would otherwise be
// served stale. TestModelGolden digests a fixed grid's cpu.Stats and
// outcome checksums and fails when they move while this constant does not.
// A change that only makes the simulator faster leaves the digest, and so
// this constant, alone.
const ModelVersion = 1

// resultIdentity digests the full identity of one cell: the model version ×
// its functional identity × its timing identity (timingIdentity of its
// config). The canonical bytes are
//
//	result|model=%d|wl=%s|scale=%d|flavour=%s|stack=%t|checks=%t|tw=%d|rz=%d|mode=%d|intercept=%d|budget=%d|<timing>
//
// in fmt's spelling of each value, as every earlier build wrote them, so
// the stores those builds filled stay warm; TestResultIdentityGolden pins
// the digests. They are assembled in a stack buffer, which fits every grid
// this package defines, and hashed where they lie: the digest persist.SumID
// takes of the same bytes as a string.
func resultIdentity(k traceKey, timing string) persist.ID {
	var buf [1024]byte
	b := append(buf[:0], "result|model="...)
	b = strconv.AppendInt(b, ModelVersion, 10)
	b = append(b, "|wl="...)
	b = append(b, k.workload...)
	b = append(b, "|scale="...)
	b = strconv.AppendInt(b, k.scale, 10)
	b = append(b, "|flavour="...)
	b = append(b, k.pass.Flavour...)
	b = append(b, "|stack="...)
	b = strconv.AppendBool(b, k.pass.StackProtection)
	b = append(b, "|checks="...)
	b = strconv.AppendBool(b, k.pass.AccessChecks)
	b = append(b, "|tw="...)
	b = strconv.AppendUint(b, k.pass.TokenWidth, 10)
	b = append(b, "|rz="...)
	b = strconv.AppendUint(b, k.pass.RedzoneBytes, 10)
	b = append(b, "|mode="...)
	b = strconv.AppendUint(b, uint64(k.mode), 10)
	b = append(b, "|intercept="...)
	b = strconv.AppendInt(b, int64(k.intercept), 10)
	b = append(b, "|budget="...)
	b = strconv.AppendUint(b, k.budget, 10)
	b = append(b, '|')
	b = append(b, timing...)
	return sha256.Sum256(b)
}

// resultFromStore reconstructs a RunResult from a memoized cell outcome.
// Its Stats are the decoded result's own, not a copy: nothing else holds
// cr. Obs is nil by design: a cell that needs a registry is never served
// from the result store.
func resultFromStore(wl workload.Workload, cfg BinaryConfig, cr *persist.CellResult) *RunResult {
	return &RunResult{
		Workload: wl.Name,
		Config:   cfg.Name,
		Stats:    &cr.Stats,
		Outcome:  world.Outcome{Checksum: cr.Checksum},
		Source:   "result-store",
	}
}

// storeResult memoizes one clean cell outcome; failures are advisory (the
// run already succeeded) and surface only as missing future hits.
func storeResult(disk *persist.Cache, rid persist.ID, res *RunResult) {
	if disk == nil || disk.ReadOnly() || res == nil || res.Stats == nil ||
		res.Stats.Exception != nil || res.Outcome.Detected() {
		return
	}
	_ = disk.StoreResult(rid, &persist.CellResult{
		Stats:    *res.Stats,
		Checksum: res.Outcome.Checksum,
	})
}

// recordDiskObs exports the persistent store's counters into a sweep
// registry as harness.diskcache.* metrics. Like the in-memory counters they
// are the store's lifetime totals; unlike them they describe operational
// state (what happened to be on disk), so they are deliberately excluded
// from the byte-identical-reports contract.
func (tc *TraceCache) recordDiskObs(r *obs.Registry) {
	tc.mu.Lock()
	pc := tc.disk
	tc.mu.Unlock()
	if pc == nil {
		return
	}
	c := pc.Counters()
	r.Counter("harness.diskcache.result_hits").Add(c.ResultHits)
	r.Counter("harness.diskcache.result_misses").Add(c.ResultMisses)
	r.Counter("harness.diskcache.stores").Add(c.Stores)
	r.Counter("harness.diskcache.corruptions").Add(c.Corruptions)
	r.Counter("harness.diskcache.unavailable").Add(c.Unavailable)
	r.Counter("harness.diskcache.bytes").Add(c.Bytes)
}
