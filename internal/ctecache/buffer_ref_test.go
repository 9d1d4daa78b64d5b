package ctecache

import (
	"math/rand"
	"testing"
)

// refBuffer is the linear-scan CTE Buffer the indexed Buffer replaced,
// kept as the reference model: FIFO over a ring with a parallel valid
// array, every operation a scan of all entries.
type refBuffer struct {
	entries []BufEntry
	valid   []bool
	next    int
}

func newRefBuffer(n int) *refBuffer {
	return &refBuffer{entries: make([]BufEntry, n), valid: make([]bool, n)}
}

func (b *refBuffer) find(ppn uint64) int {
	for i := range b.entries {
		if b.valid[i] && b.entries[i].PPN == ppn {
			return i
		}
	}
	return -1
}

func (b *refBuffer) Insert(e BufEntry) {
	if i := b.find(e.PPN); i >= 0 {
		b.entries[i] = e
		return
	}
	i := b.next
	b.next = (b.next + 1) % len(b.entries)
	b.entries[i] = e
	b.valid[i] = true
}

func (b *refBuffer) Lookup(ppn uint64) (BufEntry, bool) {
	if i := b.find(ppn); i >= 0 {
		return b.entries[i], true
	}
	return BufEntry{}, false
}

func (b *refBuffer) Update(ppn uint64, correct uint32) (uint64, bool, bool) {
	i := b.find(ppn)
	if i < 0 {
		return 0, false, false
	}
	e := &b.entries[i]
	stale := !e.HasCTE || e.CTE != correct
	e.CTE = correct
	e.HasCTE = true
	return e.PTBAddr, true, stale
}

func (b *refBuffer) Len() int {
	n := 0
	for _, v := range b.valid {
		if v {
			n++
		}
	}
	return n
}

// bufOp is one operation of a Buffer op stream.
type bufOp struct {
	kind uint8 // 0 Insert, 1 Lookup, 2 Update
	ppn  uint64
	cte  uint32
	has  bool
	ptb  uint64
}

// checkBufferOps drives the indexed Buffer and the reference with the same
// op stream, comparing every result, the FIFO cursor and the slot each PPN
// occupies.
func checkBufferOps(t *testing.T, n int, ops []bufOp) {
	t.Helper()
	got, ref := NewBuffer(n), newRefBuffer(n)
	for k, op := range ops {
		switch op.kind {
		case 0:
			e := BufEntry{PPN: op.ppn, CTE: op.cte, HasCTE: op.has, PTBAddr: op.ptb}
			got.Insert(e)
			ref.Insert(e)
		case 1:
			ge, gok := got.Lookup(op.ppn)
			re, rok := ref.Lookup(op.ppn)
			if ge != re || gok != rok {
				t.Fatalf("n=%d op %d Lookup(%d) = %+v %v, reference %+v %v", n, k, op.ppn, ge, gok, re, rok)
			}
		case 2:
			ga, gp, gs := got.Update(op.ppn, op.cte)
			ra, rp, rs := ref.Update(op.ppn, op.cte)
			if ga != ra || gp != rp || gs != rs {
				t.Fatalf("n=%d op %d Update(%d, %d) = %d %v %v, reference %d %v %v",
					n, k, op.ppn, op.cte, ga, gp, gs, ra, rp, rs)
			}
		}
		if got.Len() != ref.Len() || got.next != ref.next {
			t.Fatalf("n=%d op %d: len/next %d/%d, reference %d/%d", n, k, got.Len(), got.next, ref.Len(), ref.next)
		}
		if i, j := got.find(op.ppn), ref.find(op.ppn); i != j {
			t.Fatalf("n=%d op %d: ppn %d in slot %d, reference slot %d", n, k, op.ppn, i, j)
		}
	}
	for i := 0; i < ref.Len(); i++ {
		if got.entries[i] != ref.entries[i] {
			t.Fatalf("n=%d final slot %d = %+v, reference %+v", n, i, got.entries[i], ref.entries[i])
		}
		if got.find(ref.entries[i].PPN) != i {
			t.Fatalf("n=%d final: ppn %d not indexed at slot %d", n, ref.entries[i].PPN, i)
		}
	}
}

// TestBufferMatchesReference runs seeded random op streams over PPN ranges
// small enough that re-inserts of present PPNs and Updates on present and
// absent PPNs are frequent, and large enough that FIFO evictions churn the
// index (backward-shift deletes across wrapped probe runs).
func TestBufferMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 64, 128} {
		for _, span := range []int{n + 1, 2 * n, 4*n + 3} {
			rng := rand.New(rand.NewSource(int64(n*1000 + span)))
			ops := make([]bufOp, 20000)
			for i := range ops {
				ops[i] = bufOp{
					kind: uint8(rng.Intn(3)),
					ppn:  uint64(rng.Intn(span)),
					cte:  uint32(rng.Intn(4)),
					has:  rng.Intn(2) == 0,
					ptb:  uint64(rng.Intn(16)) * 64,
				}
			}
			checkBufferOps(t, n, ops)
		}
	}
}

// TestBufferClusteredPPNs inserts the eight PPNs of consecutive PTBs, the
// shape loadCTEBuffer produces, including PPNs spread over a wide range.
func TestBufferClusteredPPNs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ops []bufOp
	for i := 0; i < 3000; i++ {
		base := uint64(rng.Intn(40)) * 8
		if i%5 == 0 {
			base = uint64(rng.Int63n(1<<40)) &^ 7
		}
		for j := uint64(0); j < 8; j++ {
			ops = append(ops, bufOp{kind: 0, ppn: base + j, cte: uint32(i), has: true, ptb: base * 8})
		}
		ops = append(ops, bufOp{kind: 1, ppn: uint64(rng.Intn(320))}, bufOp{kind: 2, ppn: uint64(rng.Intn(320)), cte: 7})
	}
	for _, n := range []int{8, 64, 128} {
		checkBufferOps(t, n, ops)
	}
}

// FuzzBufferOps decodes its input into a buffer size and an op stream and
// checks the indexed Buffer against the reference model.
func FuzzBufferOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2, 2, 0, 3, 1, 1})
	f.Add([]byte{7, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 5, 1, 5, 2, 9})
	f.Add([]byte{63, 0, 200, 0, 100, 0, 36, 2, 200, 1, 100, 0, 164})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%128)
		var ops []bufOp
		for i := 1; i+1 < len(data); i += 2 {
			b := data[i]
			ops = append(ops, bufOp{
				kind: b % 3,
				ppn:  uint64(data[i+1]),
				cte:  uint32(b >> 4),
				has:  b&8 != 0,
				ptb:  uint64(b>>2) * 64,
			})
		}
		checkBufferOps(t, n, ops)
	})
}
