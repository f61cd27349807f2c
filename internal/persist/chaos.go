// The deterministic fault injector: a Backend wrapper that makes storage
// misbehave on purpose, from a seeded RNG, so the degrade-to-recompute
// contract is provable instead of hoped-for. Six fault classes, each with an
// independent probability:
//
//   - err: the op fails with a transient *UnavailableError
//   - torn: a Put publishes only a prefix of the payload, then fails — the
//     crashed-mid-write shape an atomic rename normally forbids, which is
//     exactly what the codec CRCs must catch
//   - corrupt: a Get's payload comes back with one bit flipped (the backend
//     "succeeded"; validation above must notice)
//   - nospace: a Put fails with ErrNoSpace
//   - latency: the op stalls for Delay before proceeding
//   - lockstall: a TryLock stalls for Delay before proceeding
//
// Spec grammar (restbench -cache-chaos): comma-separated key=value, e.g.
// "seed=7,rate=0.5" or "seed=7,err=0.1,torn=0.05,latency=0.2,delay=5ms".
// "rate=F" is shorthand setting err, torn, corrupt, nospace and lockstall
// all to F at once; individual keys override it in either order.
//
// Determinism: one seeded RNG drives every draw, so a single-threaded
// op sequence injects an identical fault pattern every run. Concurrent
// sweeps interleave draws nondeterministically — which is the point: the
// differential wall proves the report is byte-identical under ANY fault
// pattern, because every fault degrades to the same recompute.
package persist

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosSpec configures the fault injector. The zero value injects nothing.
type ChaosSpec struct {
	Seed      uint64        // RNG seed (0 = 1)
	Err       float64       // P(transient error) per op
	Torn      float64       // P(torn write) per Put
	Corrupt   float64       // P(bit-flipped payload) per Get
	NoSpace   float64       // P(ErrNoSpace) per Put
	Latency   float64       // P(latency spike) per op
	LockStall float64       // P(stall) per TryLock
	Delay     time.Duration // stall length for latency/lockstall (default 1ms)
}

// ParseChaosSpec parses the -cache-chaos grammar. An empty string is an
// error (callers should treat "flag absent" as "no chaos" themselves).
func ParseChaosSpec(s string) (*ChaosSpec, error) {
	spec := &ChaosSpec{}
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("persist: empty chaos spec")
	}
	prob := func(key, val string) (float64, error) {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return 0, fmt.Errorf("persist: chaos spec %s=%s: want a probability in [0,1]", key, val)
		}
		return f, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("persist: chaos spec field %q: want key=value", field)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("persist: chaos spec seed=%s: %v", val, err)
			}
		case "rate":
			var f float64
			if f, err = prob(key, val); err != nil {
				return nil, err
			}
			spec.Err, spec.Torn, spec.Corrupt, spec.NoSpace, spec.LockStall = f, f, f, f, f
		case "err":
			spec.Err, err = prob(key, val)
		case "torn":
			spec.Torn, err = prob(key, val)
		case "corrupt":
			spec.Corrupt, err = prob(key, val)
		case "nospace":
			spec.NoSpace, err = prob(key, val)
		case "latency":
			spec.Latency, err = prob(key, val)
		case "lockstall":
			spec.LockStall, err = prob(key, val)
		case "delay":
			spec.Delay, err = time.ParseDuration(val)
			if err != nil || spec.Delay < 0 {
				return nil, fmt.Errorf("persist: chaos spec delay=%s: want a non-negative duration", val)
			}
		default:
			return nil, fmt.Errorf("persist: chaos spec key %q unknown (want seed|rate|err|torn|corrupt|nospace|latency|lockstall|delay)", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// String renders the spec back in its own grammar (restbench echoes it).
func (s *ChaosSpec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("err", s.Err)
	add("torn", s.Torn)
	add("corrupt", s.Corrupt)
	add("nospace", s.NoSpace)
	add("latency", s.Latency)
	add("lockstall", s.LockStall)
	sort.Strings(parts)
	if s.Delay > 0 {
		parts = append(parts, "delay="+s.Delay.String())
	}
	return fmt.Sprintf("seed=%d,%s", s.Seed, strings.Join(parts, ","))
}

// Chaos wraps a Backend with seeded fault injection.
type Chaos struct {
	inner Backend
	spec  ChaosSpec
	st    *StackStats

	mu  sync.Mutex
	rng *rand.Rand
}

// NewChaos wraps inner with fault injection driven by spec. Injected faults
// are counted into st (nil allocates a private set).
func NewChaos(inner Backend, spec *ChaosSpec, st *StackStats) *Chaos {
	sp := *spec
	if st == nil {
		st = &StackStats{}
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Delay <= 0 {
		sp.Delay = time.Millisecond
	}
	return &Chaos{inner: inner, spec: sp, st: st, rng: rand.New(rand.NewSource(int64(sp.Seed)))}
}

// roll draws one uniform float under the injector's lock.
func (c *Chaos) roll() float64 {
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	return f
}

// intn draws one uniform int in [0,n) under the injector's lock.
func (c *Chaos) intn(n int) int {
	c.mu.Lock()
	v := c.rng.Intn(n)
	c.mu.Unlock()
	return v
}

// maybeStall injects a latency spike.
func (c *Chaos) maybeStall(p float64, counter *atomic.Uint64) bool {
	if p > 0 && c.roll() < p {
		counter.Add(1)
		time.Sleep(c.spec.Delay)
		return true
	}
	return false
}

func (c *Chaos) Get(kind, name string) ([]byte, error) {
	c.maybeStall(c.spec.Latency, &c.st.ChaosLatency)
	if c.spec.Err > 0 && c.roll() < c.spec.Err {
		c.st.ChaosErrs.Add(1)
		return nil, unavailable("get", kind, name, errInjected)
	}
	data, err := c.inner.Get(kind, name)
	if err == nil && len(data) > 0 && c.spec.Corrupt > 0 && c.roll() < c.spec.Corrupt {
		c.st.ChaosCorrupt.Add(1)
		bit := c.intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
	}
	return data, err
}

func (c *Chaos) Put(kind, name string, data []byte) error {
	c.maybeStall(c.spec.Latency, &c.st.ChaosLatency)
	if c.spec.NoSpace > 0 && c.roll() < c.spec.NoSpace {
		c.st.ChaosNoSpace.Add(1)
		return ErrNoSpace
	}
	if c.spec.Err > 0 && c.roll() < c.spec.Err {
		c.st.ChaosErrs.Add(1)
		return unavailable("put", kind, name, errInjected)
	}
	if c.spec.Torn > 0 && c.roll() < c.spec.Torn {
		// The crash-mid-write shape: a prefix of the payload lands under the
		// final name (as if a non-atomic writer died after some sectors), and
		// the writer itself sees a failure. Validation above must reject the
		// prefix, and the rejecting load deletes it.
		c.st.ChaosTorn.Add(1)
		if n := len(data); n > 1 {
			c.inner.Put(kind, name, data[:1+c.intn(n-1)])
		}
		return unavailable("put", kind, name, errTorn)
	}
	return c.inner.Put(kind, name, data)
}

func (c *Chaos) Delete(kind, name string) error {
	c.maybeStall(c.spec.Latency, &c.st.ChaosLatency)
	if c.spec.Err > 0 && c.roll() < c.spec.Err {
		c.st.ChaosErrs.Add(1)
		return unavailable("delete", kind, name, errInjected)
	}
	return c.inner.Delete(kind, name)
}

func (c *Chaos) List(kind string) ([]Stat, error) {
	c.maybeStall(c.spec.Latency, &c.st.ChaosLatency)
	if c.spec.Err > 0 && c.roll() < c.spec.Err {
		c.st.ChaosErrs.Add(1)
		return nil, unavailable("list", kind, "", errInjected)
	}
	return c.inner.List(kind)
}

func (c *Chaos) TryLock(name string) (func(), error) {
	c.maybeStall(c.spec.LockStall, &c.st.ChaosLockStalls)
	if c.spec.Err > 0 && c.roll() < c.spec.Err {
		c.st.ChaosErrs.Add(1)
		return nil, unavailable("lock", "", name, errInjected)
	}
	return c.inner.TryLock(name)
}

func (c *Chaos) LockAge(name string) (time.Duration, error) {
	if c.spec.Err > 0 && c.roll() < c.spec.Err {
		c.st.ChaosErrs.Add(1)
		return 0, unavailable("lock", "", name, errInjected)
	}
	return c.inner.LockAge(name)
}

func (c *Chaos) BreakLock(name string) error {
	if c.spec.Err > 0 && c.roll() < c.spec.Err {
		c.st.ChaosErrs.Add(1)
		return unavailable("lock", "", name, errInjected)
	}
	return c.inner.BreakLock(name)
}

var (
	errInjected = fmt.Errorf("injected chaos fault")
	errTorn     = fmt.Errorf("injected torn write")
)
