package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"rest/internal/isa"
)

// oneSite is a serialized trace with a one-row site table (PC 0x1000, every
// other field zero) followed by blocks, each given as its bytes.
func oneSite(blocks ...[]byte) []byte {
	p := binary.AppendUvarint(nil, 1)
	p = binary.LittleEndian.AppendUint64(p, 0x1000)
	p = append(p, 0, 0, 0, 0, 0, 0)
	for _, b := range blocks {
		p = binary.AppendUvarint(p, uint64(len(b)))
		p = append(p, b...)
	}
	return p
}

// TestDecodeRecorderRejects feeds DecodeRecorder one malformed shape per
// rule it enforces and checks each is refused for that reason, next to a
// well-formed control built the same way.
func TestDecodeRecorderRejects(t *testing.T) {
	// run(k) is a block of k entries of site 0, each header byte saying
	// Addr and Target are zero. The first two name the site explicitly (a
	// zero header byte, then index 0); the second thereby records site 0 as
	// its own successor, so the rest are coded "same site" (bit 2) alone.
	run := func(k int) []byte {
		if k == 1 {
			return []byte{0x00, 0x00}
		}
		return append([]byte{0x00, 0x00, 0x00, 0x00}, bytes.Repeat([]byte{0x04}, k-2)...)
	}
	// runCoded(k) is the same block with its same-site entries as one run,
	// as the Recorder writes it.
	runCoded := func(k int) []byte {
		return binary.AppendUvarint([]byte{0x00, 0x00, 0x00, 0x00, hdrRun}, uint64(k-2))
	}
	// armAt(addr) is a one-entry trace of a non-faulting ARM at addr, its
	// address coded as a delta from the fresh site's zero prediction.
	armAt := func(addr uint64) []byte {
		p := binary.AppendUvarint(nil, 1)
		p = binary.LittleEndian.AppendUint64(p, 0x1000)
		p = append(p, byte(isa.OpArm), byte(KindRuntime), 0, 0, 0, 0)
		b := binary.AppendVarint([]byte{codeDelta << hdrAddrShift, 0x00}, int64(addr))
		p = binary.AppendUvarint(p, uint64(len(b)))
		return append(p, b...)
	}
	control := run(3)
	// Every block takes at least minBlockBytes, so a count needing one
	// block more than the payload could hold is refused before decoding.
	fits := uint64(len(oneSite(control))) / minBlockBytes * blockEntries
	for _, tt := range []struct {
		name    string
		entries uint64
		src     []byte
		want    string // "" = decodes
	}{
		{"control", 3, oneSite(control), ""},
		{"control across blocks", blockEntries + 1, oneSite(run(blockEntries), run(1)), ""},
		{"run control", 5, oneSite(runCoded(5)), ""},
		{"run control across blocks", blockEntries + 3, oneSite(runCoded(blockEntries), runCoded(3)), ""},
		{"first block one entry short", blockEntries + 1, oneSite(run(blockEntries-1), run(2)), "entry 16383: unexpected end"},
		{"entry count past the payload", fits + 1, oneSite(control), "cannot fit"},
		{"entry count at the payload bound", fits, oneSite(control), "entry 3: unexpected end"},
		{"malformed site count", 0, bytes.Repeat([]byte{0xff}, 11), "malformed uvarint"},
		{"site count past the payload", 0, binary.AppendUvarint(nil, 1<<40), "sites cannot fit"},
		{"site index outside the table", 1, oneSite([]byte{0x00, 0x01}), "site index 1 outside the 1-site table"},
		{"same site at a block start", 1, oneSite([]byte{0x04}), "no recorded successor"},
		{"same site with no successor", 2, oneSite([]byte{0x00, 0x00, 0x04}), "no recorded successor"},
		{"run at a block start", 1, oneSite([]byte{hdrRun, 0x01}), "run entry with no recorded successor"},
		{"run with no successor", 2, oneSite([]byte{0x00, 0x00, hdrRun, 0x01}), "run entry with no recorded successor"},
		{"run crossing the end of its block", 5, oneSite(runCoded(6)), "run of 4 entries crosses the end of its block (3 entries left)"},
		{"run crossing a block edge", blockEntries + 3, oneSite(runCoded(blockEntries + 3)), "run of 16385 entries crosses the end of its block (16382 entries left)"},
		{"run header with stray bits", 3, oneSite([]byte{0x00, 0x00, 0x00, 0x00, hdrRun | hdrTaken, 0x01}), "run header 0x19 has stray bits"},
		{"empty run", 3, oneSite([]byte{0x00, 0x00, 0x00, 0x00, hdrRun, 0x00}), "empty run"},
		{"malformed run count", 3, oneSite([]byte{0x00, 0x00, 0x00, 0x00, hdrRun, 0x80}), "malformed uvarint"},
		{"run through a delta", 3, oneSite([]byte{0x00, 0x00, codeDelta << hdrAddrShift, 0x00, 0x02, hdrRun, 0x01}), "last header 0x10 codes a delta"},
		{"undefined header bit", 1, oneSite([]byte{0x80, 0x00}), "undefined header bits"},
		{"undefined value code", 1, oneSite([]byte{3 << hdrTargetShift, 0x00}), "undefined value code 3"},
		{"malformed delta", 1, oneSite([]byte{2 << 3, 0x00, 0x80}), "malformed varint"},
		{"block short of its entries", 4, oneSite(control), "entry 3: unexpected end"},
		{"block with bytes to spare", 2, oneSite(control), "1 bytes left in the block"},
		{"block length past the payload", 3, oneSite(control)[:20], "block at entry 0: unexpected end"},
		{"bytes after the last block", 3, append(oneSite(control), 0), "1 bytes after the last block"},
		{"ARM control", 1, armAt(0x4000), ""},
		{"ARM at an odd address", 1, armAt(0x4001), "entry 0: non-faulting arm at odd address 0x4001"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rec, err := DecodeRecorder(8, tt.entries, tt.src)
			if tt.want == "" {
				if err != nil || rec.Len() != int(tt.entries) {
					t.Fatalf("control: %v", err)
				}
				return
			}
			if err == nil || rec != nil {
				t.Fatalf("decoded (%v), want an error containing %q", err, tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q, want it to contain %q", err, tt.want)
			}
		})
	}
}
