// Package system implements the paper's system-level support (§IV-B).
//
// The paper proposes two deployment models for the token value:
//
//  1. A single system-wide token, rotated periodically (e.g. at reboot).
//     Heap-only protection supports rotation without recompilation because
//     the allocator's armed regions can be re-written by privileged code.
//  2. A unique token per process, with the OS (a) writing the token
//     configuration register on every context switch via privileged
//     memory-mapped stores, and (b) dealing with tokens from other
//     processes when address spaces are cloned or shared.
//
// This package models that OS layer: processes with private address spaces
// and token values, a context-switch path that swaps the hardware token
// register, fork-style cloning (which must re-arm the child's inherited
// blacklist with the child's token), and token rotation (which must rebind
// every armed chunk).
package system

import (
	"fmt"
	"math/rand"

	"rest/internal/core"
	"rest/internal/mem"
)

// TokenHW models the hardware's single token configuration register and the
// privilege boundary around it: only the OS (this package) may set it, via
// the memory-mapped update path (§III-A "Setting the token value is done
// through a store instruction that writes to a memory-mapped address ...
// only ... by a higher privileged mode").
type TokenHW struct {
	current *core.TokenRegister
	writes  uint64
}

// LoadContext installs a process's token register (a context-switch step).
func (hw *TokenHW) LoadContext(reg *core.TokenRegister) {
	// The 64-byte value is written in 8-byte privileged stores.
	hw.writes += uint64(len(reg.Value()) / 8)
	hw.current = reg
}

// Current returns the installed register (what the detector compares with).
func (hw *TokenHW) Current() *core.TokenRegister { return hw.current }

// PrivilegedWrites reports how many memory-mapped register stores occurred.
func (hw *TokenHW) PrivilegedWrites() uint64 { return hw.writes }

// Process is one OS process: a private address space with its own token.
type Process struct {
	PID     int
	Mem     *mem.Memory
	Reg     *core.TokenRegister
	Tracker *core.TokenTracker
}

// OS manages processes and the token hardware.
type OS struct {
	HW      TokenHW
	rng     *rand.Rand
	nextPID int
	procs   map[int]*Process
	running *Process

	// Stats.
	ContextSwitches uint64
	Clones          uint64
	Rotations       uint64
	RearmedChunks   uint64
}

// NewOS boots an OS with a deterministic token source.
func NewOS(seed int64) *OS {
	return &OS{
		rng:     rand.New(rand.NewSource(seed)),
		nextPID: 1,
		procs:   make(map[int]*Process),
	}
}

// Spawn creates a fresh process with its own address space and token.
func (os *OS) Spawn(width core.Width, mode core.Mode) (*Process, error) {
	reg, err := core.NewTokenRegister(width, mode, os.rng)
	if err != nil {
		return nil, err
	}
	m := mem.New()
	p := &Process{
		PID:     os.nextPID,
		Mem:     m,
		Reg:     reg,
		Tracker: core.NewTokenTracker(reg, m),
	}
	os.nextPID++
	os.procs[p.PID] = p
	return p, nil
}

// Schedule context-switches to p: the token configuration register is
// reloaded with p's token so the detector flags p's blacklist and nobody
// else's.
func (os *OS) Schedule(p *Process) error {
	if os.procs[p.PID] != p {
		return fmt.Errorf("system: unknown process %d", p.PID)
	}
	os.HW.LoadContext(p.Reg)
	os.running = p
	os.ContextSwitches++
	return nil
}

// Clone forks parent into a new process: the address space (including any
// token content) is copied, the child draws a fresh token, and — the §IV-B
// obligation — every armed chunk inherited from the parent is re-armed with
// the child's token so the child's detector still covers the blacklist.
// regions is the list of [start,end) address ranges to copy.
func (os *OS) Clone(parent *Process, regions [][2]uint64) (*Process, error) {
	child, err := os.Spawn(parent.Reg.Width(), parent.Reg.Mode())
	if err != nil {
		return nil, err
	}
	os.Clones++
	buf := make([]byte, 1<<16)
	for _, r := range regions {
		for a := r[0]; a < r[1]; {
			n := uint64(len(buf))
			if r[1]-a < n {
				n = r[1] - a
			}
			parent.Mem.Read(a, buf[:n])
			child.Mem.Write(a, buf[:n])
			a += n
		}
	}
	// Re-arm the inherited blacklist under the child's token. Without this
	// pass the copied parent-token bytes are inert data in the child (its
	// detector compares against the child token) and the blacklist would
	// silently vanish.
	for _, a := range parent.Tracker.ArmedChunks() {
		if exc := child.Tracker.Arm(a, 0); exc != nil {
			return nil, fmt.Errorf("system: re-arming clone: %v", exc)
		}
		os.RearmedChunks++
	}
	return child, nil
}

// RotateToken draws a fresh token for p (the paper's periodic rotation,
// e.g. at reboot) and rebinds every armed chunk to the new value so the
// blacklist survives the rotation.
func (os *OS) RotateToken(p *Process) {
	p.Reg.Rotate(os.rng)
	p.Tracker.Rebind()
	os.Rotations++
	os.RearmedChunks += uint64(p.Tracker.ArmedCount())
	if os.running == p {
		os.HW.LoadContext(p.Reg)
	}
}

// DetectorView answers whether the CURRENTLY SCHEDULED hardware would flag
// an access by the running process to addr — i.e. whether the line content
// matches the installed token register. Cross-process probes model the
// §V-B isolation argument: process B's hardware does not flag process A's
// tokens because the register holds B's value.
func (os *OS) DetectorView(p *Process, addr uint64) bool {
	cur := os.HW.Current()
	if cur == nil {
		return false
	}
	line := addr &^ (core.LineBytes - 1)
	chunk := uint64(cur.Width())
	for a := line; a < line+core.LineBytes; a += chunk {
		if p.Mem.Equal(a, cur.Value()) {
			lo, hi := a, a+chunk
			if addr >= lo && addr < hi {
				return true
			}
		}
	}
	return false
}
