package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"rest/internal/isa"
)

// The serialized form: a Recorder's storage written out as it is, so a
// trace stored on disk is the same bytes a Recorder holds in memory.
//
//	uvarint        site count S
//	S × 14 bytes   site table: pc (uint64 LE), op, kind, dst, src1, src2, size
//	per block, ⌈n / blockEntries⌉ of them, in order:
//	  uvarint      the block's byte length
//	  bytes        the block's entries, encoded as in the Recorder
//
// The entry count n and the token width are not part of it: the container
// keeps them (the persistent store's file header does) and hands them back
// to DecodeRecorder.

// siteRowLen is one serialized site-table row.
const siteRowLen = 14

// AppendEncoding appends the Recorder's serialized form to dst and returns
// the extended slice. It grows dst at most once, by the size of what it
// appends, so a caller that passes a header gets the whole file in one
// allocation. An overflowed Recorder holds nothing and serializes as an
// empty trace.
func (r *Recorder) AppendEncoding(dst []byte) []byte {
	nblocks := (r.n + blockMask) >> blockShift
	need := uvarintLen(uint64(len(r.sites))) + len(r.sites)*siteRowLen
	for k := 0; k < nblocks; k++ {
		b := len(r.block(k))
		need += uvarintLen(uint64(b)) + b
	}
	if cap(dst)-len(dst) < need {
		// Not slices.Grow: under the race detector its temporary is a
		// second allocation of the whole size.
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.sites)))
	for _, s := range r.sites {
		dst = binary.LittleEndian.AppendUint64(dst, s.pc)
		dst = append(dst, byte(s.op), byte(s.kind), s.dst, s.src1, s.src2, s.size)
	}
	for k := 0; k < nblocks; k++ {
		b := r.block(k)
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// minBlockBytes is the least a serialized block of one or more entries
// takes: its length, then its first entry's header and site index (a
// block's first entry always names its site).
const minBlockBytes = 3

// DecodeRecorder rebuilds a Recorder from the serialized form of a trace of
// the given token width and entry count. Unlike the replay path's decoding
// it trusts nothing, and answers any input with a Recorder or an error,
// never a panic. It rejects malformed varints, undefined header bits and
// value codes, run headers with stray bits, empty runs and runs that cross
// the end of their block, site indices outside the table, a same-site or
// run entry whose previous site has no recorded successor, a run entry
// whose site was last coded with a delta, a non-faulting ARM or DISARM at
// an odd address in a trace with a token width (the machine faults every
// misaligned one, and the effect index keeps its arm flag in bit 0), a
// trace too long for the effect index, a block that does not decode to
// exactly its share of the entries (blockEntries each, the last block what
// remains) in exactly its bytes, bytes after the last block, a site table
// longer than src, and an entry count needing more blocks than src could
// hold at minBlockBytes each. The entries are appended to a fresh Recorder
// one by one, so its effect index is built by the capture path itself, and
// its storage is the canonical encoding of what was decoded: for
// AppendEncoding's output, the same bytes.
func DecodeRecorder(tokenWidth, entries uint64, src []byte) (*Recorder, error) {
	if blocks := entries>>blockShift + min(entries&blockMask, 1); blocks > uint64(len(src))/minBlockBytes {
		return nil, fmt.Errorf("trace: %d entries cannot fit in %d bytes", entries, len(src))
	}
	d := untrusted{b: src}
	nsites := d.uvarint()
	if d.err == nil && nsites > uint64(len(src)-d.off)/siteRowLen {
		d.fail(fmt.Errorf("%d sites cannot fit in %d bytes", nsites, len(src)-d.off))
	}
	rows := d.bytes(nsites * siteRowLen)
	if d.err != nil {
		return nil, fmt.Errorf("trace: site table: %w", d.err)
	}
	sites := make([]site, nsites)
	for i := range sites {
		row := rows[i*siteRowLen:]
		sites[i] = site{
			pc: binary.LittleEndian.Uint64(row), op: isa.Op(row[8]), kind: Kind(row[9]),
			dst: row[10], src1: row[11], src2: row[12], size: row[13],
		}
	}

	rec := NewRecorder(tokenWidth, 0)
	m := model{pred: make([]predictor, nsites)}
	for pos := uint64(0); pos < entries; {
		blk := untrusted{b: d.bytes(d.uvarint())}
		if d.err != nil {
			return nil, fmt.Errorf("trace: block at entry %d: %w", pos, d.err)
		}
		m.reset()
		for end := min(pos+blockEntries, entries); pos < end; pos++ {
			e, err := blk.entry(sites, &m, end-pos)
			if err == nil && changesShadow(tokenWidth, &e) && e.Addr&uint64(effArm) != 0 {
				err = fmt.Errorf("non-faulting %v at odd address %#x", e.Op, e.Addr)
			}
			if err != nil {
				return nil, fmt.Errorf("trace: entry %d: %w", pos, err)
			}
			rec.Append(e)
		}
		if blk.off != len(blk.b) {
			return nil, fmt.Errorf("trace: %d bytes left in the block ending at entry %d", len(blk.b)-blk.off, pos)
		}
	}
	if d.off != len(src) {
		return nil, fmt.Errorf("trace: %d bytes after the last block", len(src)-d.off)
	}
	if rec.Overflowed() {
		return nil, fmt.Errorf("trace: %d entries overflow the effect index", entries)
	}
	return rec, nil
}

// untrusted reads bytes that may be anything. The first failure sticks in
// err; reads after it return nothing.
type untrusted struct {
	b   []byte
	off int
	err error
}

var errShort = errors.New("unexpected end of data")

func (u *untrusted) fail(err error) {
	if u.err == nil {
		u.err = err
	}
}

// bytes returns the next n bytes, or nil once reading has failed.
func (u *untrusted) bytes(n uint64) []byte {
	if u.err == nil && n > uint64(len(u.b)-u.off) {
		u.fail(errShort)
	}
	if u.err != nil {
		return nil
	}
	b := u.b[u.off : u.off+int(n)]
	u.off += int(n)
	return b
}

func (u *untrusted) uvarint() uint64 {
	if u.err != nil {
		return 0
	}
	v, k := binary.Uvarint(u.b[u.off:])
	if k <= 0 {
		u.fail(errors.New("malformed uvarint"))
		return 0
	}
	u.off += k
	return v
}

func (u *untrusted) varint() int64 {
	if u.err != nil {
		return 0
	}
	v, k := binary.Varint(u.b[u.off:])
	if k <= 0 {
		u.fail(errors.New("malformed varint"))
		return 0
	}
	u.off += k
	return v
}

// hdrDefined is every header bit the encoding assigns.
const hdrDefined = hdrTaken | hdrFaults | hdrSameSite | codeMask<<hdrAddrShift | codeMask<<hdrTargetShift

// entry decodes the next entry of a block under the block's prediction
// state m, exactly as Recorder.decode does, checking every step. left is how
// many entries the block holds from this one on.
func (u *untrusted) entry(sites []site, m *model, left uint64) (Entry, error) {
	var h byte
	if m.run == 0 {
		if u.off >= len(u.b) {
			return Entry{}, errShort
		}
		h = u.b[u.off]
		u.off++
		if h&^hdrDefined != 0 {
			return Entry{}, fmt.Errorf("undefined header bits %#x", h)
		}
		if h>>hdrAddrShift&codeMask == codeRun {
			if h != hdrRun {
				return Entry{}, fmt.Errorf("run header %#x has stray bits", h)
			}
			n := u.uvarint()
			switch {
			case u.err != nil:
				return Entry{}, u.err
			case n == 0:
				return Entry{}, errors.New("empty run")
			case n > left:
				return Entry{}, fmt.Errorf("run of %d entries crosses the end of its block (%d entries left)", n, left)
			}
			m.run = n
		}
	}
	var idx uint32
	switch {
	case m.run != 0:
		if m.prev == 0 || m.pred[m.prev-1].next == 0 {
			return Entry{}, errors.New("run entry with no recorded successor")
		}
		idx = m.pred[m.prev-1].next - 1
		m.run--
		h = m.pred[idx].last
		if h>>hdrAddrShift&codeMask == codeDelta || h>>hdrTargetShift&codeMask == codeDelta {
			return Entry{}, fmt.Errorf("run entry at site %d, whose last header %#x codes a delta", idx, h)
		}
	case h&hdrSameSite != 0:
		if m.prev == 0 || m.pred[m.prev-1].next == 0 {
			return Entry{}, errors.New("same-site entry with no recorded successor")
		}
		idx = m.pred[m.prev-1].next - 1
	default:
		v := u.uvarint()
		if u.err != nil {
			return Entry{}, u.err
		}
		if v >= uint64(len(sites)) {
			return Entry{}, fmt.Errorf("site index %d outside the %d-site table", v, len(sites))
		}
		idx = uint32(v)
		if m.prev != 0 {
			m.pred[m.prev-1].next = idx + 1
		}
	}
	p := &m.pred[idx]
	addr := u.value(h>>hdrAddrShift&codeMask, p.addr+p.stride)
	target := u.value(h>>hdrTargetShift&codeMask, p.target)
	if u.err != nil {
		return Entry{}, u.err
	}
	p.stride = addr - p.addr
	p.addr = addr
	p.target = target
	p.last = h &^ hdrSameSite
	m.prev = idx + 1
	s := &sites[idx]
	return Entry{
		PC: s.pc, Op: s.op, Kind: s.kind, Dst: s.dst, Src1: s.src1, Src2: s.src2, Size: s.size,
		Addr: addr, Target: target, Taken: h&hdrTaken != 0, Faults: h&hdrFaults != 0,
	}, nil
}

// value decodes one Addr or Target coded as code against its prediction.
func (u *untrusted) value(code byte, pred uint64) uint64 {
	switch code {
	case codeZero:
		return 0
	case codePredicted:
		return pred
	case codeDelta:
		return pred + uint64(u.varint())
	}
	u.fail(fmt.Errorf("undefined value code %d", code))
	return 0
}
