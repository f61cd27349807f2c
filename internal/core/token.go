// Package core implements the REST primitive — the paper's primary
// contribution (§III, §V-B).
//
// REST is a single hardware-held secret: a very large random value (the
// token) whose width is a fraction of a cache line (16, 32 or 64 bytes).
// Software plants tokens with the ARM instruction and removes them with
// DISARM; any regular load or store that touches a token raises a privileged
// REST exception. Detection is content-based: the L1-D fill path compares
// incoming line data against the token configuration register and marks
// matching chunks with per-line token bits.
//
// This package holds the token configuration register (value, width, mode),
// the REST exception type, the content detector, and the TokenTracker — the
// architectural ground truth of which chunks are armed. The tracker is an
// acceleration structure over memory content: the invariant
//
//	tracker.Armed(a) ⇔ memory[align(a) : align(a)+W] == token
//
// is enforced by construction (Arm writes the token, Disarm zeroes it) and
// checked by property tests.
package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"rest/internal/mem"
)

// Width is a supported token width in bytes (§III-B "Modifying Token Width").
type Width int

// Supported token widths. The default is a full 64-byte cache line; 32- and
// 16-byte tokens trade overprovisioned secrecy for finer pad granularity.
const (
	Width16 Width = 16
	Width32 Width = 32
	Width64 Width = 64
)

// Valid reports whether w is one of the architecturally supported widths.
func (w Width) Valid() bool { return w == Width16 || w == Width32 || w == Width64 }

// ChunksPerLine reports how many token chunks fit in one 64-byte cache line
// (and hence how many token bits each L1-D line carries: 1, 2 or 4).
func (w Width) ChunksPerLine() int { return LineBytes / int(w) }

// LineBytes is the cache line size of the machine (Table II).
const LineBytes = 64

// Mode selects exception precision (§III-A, §III-B "Exception Reporting").
type Mode uint8

const (
	// Secure mode is the deployment mode: stores commit eagerly and REST
	// exceptions may be imprecise (reported after the offending instruction
	// retired). It is the fast mode.
	Secure Mode = iota
	// Debug mode guarantees precise exceptions: store commit is delayed
	// until write completion and loads are held at the MSHRs while a
	// partial token match is possible.
	Debug
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Debug {
		return "debug"
	}
	return "secure"
}

// ViolationKind classifies REST exceptions.
type ViolationKind uint8

// Exception causes, mirroring §III-A and Table I.
const (
	// ViolationLoad: a load touched an armed chunk.
	ViolationLoad ViolationKind = iota
	// ViolationStore: a store touched an armed chunk.
	ViolationStore
	// ViolationDisarmUnarmed: DISARM of a location holding no token.
	ViolationDisarmUnarmed
	// ViolationForwarding: a load would have forwarded from an in-flight
	// ARM in the store queue (§III-B "LSQ Modification").
	ViolationForwarding
	// ViolationStoreInflightArm: a store aimed at a location with an
	// in-flight ARM in the store queue (Table I, Store/LSQ row).
	ViolationStoreInflightArm
	// ViolationDoubleDisarm: a DISARM matching an in-flight DISARM for the
	// same location in the store queue (Table I, Disarm/LSQ row).
	ViolationDoubleDisarm
	// ViolationMisaligned: ARM/DISARM address not token-width aligned
	// ("precise invalid REST instruction exception", §III-A).
	ViolationMisaligned
)

var violationNames = [...]string{
	ViolationLoad:             "load touched token",
	ViolationStore:            "store touched token",
	ViolationDisarmUnarmed:    "disarm of unarmed location",
	ViolationForwarding:       "load would forward in-flight arm",
	ViolationStoreInflightArm: "store over in-flight arm",
	ViolationDoubleDisarm:     "disarm over in-flight disarm",
	ViolationMisaligned:       "misaligned arm/disarm",
}

// String returns a description of the violation kind.
func (k ViolationKind) String() string {
	if int(k) < len(violationNames) {
		return violationNames[k]
	}
	return fmt.Sprintf("violation(%d)", uint8(k))
}

// Exception is the privileged REST memory-safety exception. It is handled at
// the next higher privilege level; within the simulation it terminates the
// target program. Precise records whether architectural state at the faulting
// instruction is recoverable (always true in debug mode; in secure mode the
// offending instruction may already have retired).
type Exception struct {
	Kind    ViolationKind
	Addr    uint64 // faulting data address
	PC      uint64 // faulting instruction (0 if unattributable)
	Precise bool
	// DetectLagCycles is the number of cycles between the offending
	// instruction's retirement and the exception report (secure mode only;
	// 0 when precise). Filled in by the timing model.
	DetectLagCycles uint64
}

// Error implements the error interface.
func (e *Exception) Error() string {
	prec := "imprecise"
	if e.Precise {
		prec = "precise"
	}
	return fmt.Sprintf("REST exception: %s at addr=%#x pc=%#x (%s)", e.Kind, e.Addr, e.PC, prec)
}

// TokenRegister is the privileged token configuration register (§III-A). It
// holds the secret token value, the configured width, and the mode bit. It
// is written by higher-privileged code via memory-mapped stores; user-level
// code can never read it.
type TokenRegister struct {
	value []byte
	width Width
	mode  Mode
	// words caches value as little-endian uint64 words (2/4/8 for the three
	// widths) so content comparison — the fill-time detector's hot path —
	// runs as word compares instead of byte loops. Rebuilt on Rotate.
	words []uint64
}

// NewTokenRegister draws a fresh random token of the given width from rng.
// A nil rng uses a fixed-seed source (deterministic simulations).
func NewTokenRegister(w Width, mode Mode, rng *rand.Rand) (*TokenRegister, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("core: invalid token width %d", w)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(0x5EC7_70CE))
	}
	v := make([]byte, w)
	for {
		rng.Read(v)
		// An all-zero token would collide with zero-initialized data; the
		// probability is 2^-128 at minimum but a real implementation would
		// redraw, so we do too.
		if !allZero(v) {
			break
		}
	}
	t := &TokenRegister{value: v, width: w, mode: mode}
	t.rebuildWords()
	return t, nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Width returns the configured token width.
func (t *TokenRegister) Width() Width { return t.width }

// Mode returns the configured exception mode.
func (t *TokenRegister) Mode() Mode { return t.mode }

// Value exposes the token bytes to the hardware-side detector. The software
// side of the simulation must never read this; the compiler passes and
// allocators only ever use Arm/Disarm.
func (t *TokenRegister) Value() []byte { return t.value }

// Rotate draws a fresh token value (the paper suggests rotating at reboot,
// §IV-B). Rotation is only sound while no tokens are planted.
func (t *TokenRegister) Rotate(rng *rand.Rand) {
	if rng == nil {
		rng = rand.New(rand.NewSource(0x0DD5))
	}
	for {
		rng.Read(t.value)
		if !allZero(t.value) {
			t.rebuildWords()
			return
		}
	}
}

// rebuildWords refreshes the word-compare cache from the token bytes.
func (t *TokenRegister) rebuildWords() {
	t.words = t.words[:0]
	for i := 0; i < len(t.value); i += 8 {
		t.words = append(t.words, binary.LittleEndian.Uint64(t.value[i:]))
	}
}

// MatchesMem reports whether the token-width chunk at addr in m holds the
// token value, compared eight bytes at a time (8×uint64 compares for the
// full-line 64-byte width). It is the content detector's hot path: every
// L1-D fill consults it once per chunk via LineTokenMask.
func (t *TokenRegister) MatchesMem(m *mem.Memory, addr uint64) bool {
	var buf [int(Width64)]byte
	b := buf[:t.width]
	m.Read(addr, b)
	for i, w := range t.words {
		if binary.LittleEndian.Uint64(b[i*8:]) != w {
			return false
		}
	}
	return true
}

// Align returns addr rounded down to token-width alignment.
func (t *TokenRegister) Align(addr uint64) uint64 {
	return addr &^ (uint64(t.width) - 1)
}

// Aligned reports whether addr is token-width aligned.
func (t *TokenRegister) Aligned(addr uint64) bool {
	return addr&(uint64(t.width)-1) == 0
}
