package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDirectoryColdFill(t *testing.T) {
	d := NewDirectory(16)
	out := d.Fill(0x1000, 3, false)
	if !out.NeedMem || out.ExtraHops != 0 || out.Invalidate != 0 {
		t.Fatalf("cold fill outcome = %+v", out)
	}
	if d.Sharers(0x1000) != 1 {
		t.Fatalf("sharers = %d", d.Sharers(0x1000))
	}
}

func TestDirectoryReadSharing(t *testing.T) {
	d := NewDirectory(16)
	d.Fill(0x1000, 0, false)
	out := d.Fill(0x1000, 1, false)
	// Node 0 holds E: it must be downgraded and forwards the line.
	if out.NeedMem {
		t.Fatal("owner present; memory fetch should be avoided")
	}
	if out.Downgrade != 1<<0 {
		t.Fatalf("downgrade = %#b", out.Downgrade)
	}
	if out.ExtraHops != 2 {
		t.Fatalf("hops = %d", out.ExtraHops)
	}
	// Third reader: plain shared fetch from memory.
	out = d.Fill(0x1000, 2, false)
	if !out.NeedMem || out.Downgrade != 0 {
		t.Fatalf("shared read outcome = %+v", out)
	}
	if d.Sharers(0x1000) != 3 {
		t.Fatalf("sharers = %d", d.Sharers(0x1000))
	}
}

func TestDirectoryWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory(16)
	d.Fill(0x40, 0, false)
	d.Fill(0x40, 1, false)
	d.Fill(0x40, 2, false)
	out := d.Fill(0x40, 3, true)
	if out.Invalidate != 0b111 {
		t.Fatalf("invalidations = %#b", out.Invalidate)
	}
	if d.Sharers(0x40) != 1 {
		t.Fatalf("sharers after write = %d", d.Sharers(0x40))
	}
	if out.ExtraHops == 0 {
		t.Fatal("invalidation should cost hops")
	}
	st := d.Stats()
	if st.Invalidations != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDirectoryWriteToOwnedLineForwards(t *testing.T) {
	d := NewDirectory(8)
	d.Fill(0x40, 0, true) // node 0 owns M
	out := d.Fill(0x40, 1, true)
	if out.NeedMem {
		t.Fatal("dirty owner should forward, not fetch memory")
	}
	if out.Invalidate != 1<<0 {
		t.Fatalf("invalidate = %#b", out.Invalidate)
	}
	if d.Stats().Forwards != 1 {
		t.Fatal("forward not counted")
	}
}

func TestDirectoryUpgradeOwnCopy(t *testing.T) {
	d := NewDirectory(8)
	d.Fill(0x40, 0, false)
	d.Fill(0x40, 1, false)
	// Node 0 upgrades its S copy: no memory fetch, one invalidation.
	out := d.Fill(0x40, 0, true)
	if out.NeedMem {
		t.Fatal("upgrade should not refetch")
	}
	if out.Invalidate != 1<<1 {
		t.Fatalf("invalidate = %#b", out.Invalidate)
	}
}

func TestDirectoryEvict(t *testing.T) {
	d := NewDirectory(8)
	d.Fill(0x40, 0, false)
	d.Fill(0x40, 1, false)
	d.Evict(0x40, 0)
	if d.Sharers(0x40) != 1 {
		t.Fatalf("sharers = %d", d.Sharers(0x40))
	}
	d.Evict(0x40, 1)
	if d.Sharers(0x40) != 0 {
		t.Fatal("entry not reclaimed")
	}
	d.Evict(0x40, 1) // absent: no-op
	// After full eviction a new fill is cold again.
	out := d.Fill(0x40, 2, false)
	if !out.NeedMem || out.ExtraHops != 0 {
		t.Fatalf("post-evict fill = %+v", out)
	}
}

func TestDirectoryBounds(t *testing.T) {
	for _, n := range []int{0, 65, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDirectory(%d) did not panic", n)
				}
			}()
			NewDirectory(n)
		}()
	}
	d := NewDirectory(4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node did not panic")
		}
	}()
	d.Fill(0, 4, false)
}

// Property: the sharer count equals the number of distinct nodes that
// filled since the last write or full eviction, and a write always
// collapses it to one.
func TestDirectoryInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory(8)
		block := uint64(0x80)
		present := map[int]bool{}
		for i := 0; i < 200; i++ {
			node := rng.Intn(8)
			switch rng.Intn(3) {
			case 0: // read fill
				d.Fill(block, node, false)
				present[node] = true
			case 1: // write fill
				d.Fill(block, node, true)
				present = map[int]bool{node: true}
			default: // evict
				d.Evict(block, node)
				delete(present, node)
			}
			if d.Sharers(block) != len(present) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// dirOp is one directory operation: a read fill, a write fill, or an
// eviction of block by node.
type dirOp struct {
	kind  uint8 // 0 read fill, 1 write fill, 2 evict
	node  int
	block uint64
}

// applyDirOp runs op on the directory and on the map reference and
// reports the first difference in outcome, counters or sharer count.
func applyDirOp(d *Directory, ref *refDirectory, op dirOp) error {
	if op.kind < 2 {
		got := d.Fill(op.block, op.node, op.kind == 1)
		want := ref.Fill(op.block, op.node, op.kind == 1)
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%+v: outcome %+v, reference %+v", op, got, want)
		}
	} else {
		d.Evict(op.block, op.node)
		ref.Evict(op.block, op.node)
	}
	if d.Stats() != ref.stats {
		return fmt.Errorf("%+v: stats %+v, reference %+v", op, d.Stats(), ref.stats)
	}
	if got, want := d.Sharers(op.block), ref.Sharers(op.block); got != want {
		return fmt.Errorf("%+v: %d sharers, reference %d", op, got, want)
	}
	return nil
}

// checkDirTable verifies the table against the reference entry by
// entry: the same blocks with the same sharers and owners, each one
// reachable from its home slot without crossing an empty slot, and at
// most ¾ of the slots full.
func checkDirTable(d *Directory, ref *refDirectory) error {
	mask := len(d.slots) - 1
	n := 0
	for j, s := range d.slots {
		if s.sharers == 0 {
			continue
		}
		n++
		e, ok := ref.entries[s.block]
		if !ok || e.sharers != s.sharers || e.owner != d.owner[j] {
			return fmt.Errorf("slot %d holds %#x sharers %#x owner %d; reference %+v (present %v)",
				j, s.block, s.sharers, d.owner[j], e, ok)
		}
		for i := d.home(s.block); i != j; i = (i + 1) & mask {
			if d.slots[i].sharers == 0 {
				return fmt.Errorf("block %#x at slot %d is cut off from its home %d by empty slot %d",
					s.block, j, d.home(s.block), i)
			}
		}
	}
	if n != len(ref.entries) || n != d.count {
		return fmt.Errorf("table holds %d entries (count %d), reference %d", n, d.count, len(ref.entries))
	}
	if 4*n > 3*len(d.slots) {
		return fmt.Errorf("%d entries in %d slots is past 3/4 load", n, len(d.slots))
	}
	return nil
}

// pickBit returns the index of a random set bit of a nonzero mask.
func pickBit(rng *rand.Rand, mask uint64) int {
	var set []int
	for b := 0; b < 64; b++ {
		if mask&(1<<uint(b)) != 0 {
			set = append(set, b)
		}
	}
	return set[rng.Intn(len(set))]
}

// deleteWraps reports whether evicting block from node would delete
// its entry with the rest of its probe run wrapping past the table's
// last slot, so that the backward shift crosses the wrap.
func deleteWraps(d *Directory, ref *refDirectory, block uint64, node int) bool {
	e, ok := ref.entries[block]
	if !ok || e.sharers != 1<<uint(node) {
		return false
	}
	i, _ := d.find(block)
	for j := i; d.slots[j].sharers != 0; j = (j + 1) % len(d.slots) {
		if j == len(d.slots)-1 && d.slots[0].sharers != 0 {
			return true
		}
	}
	return false
}

// TestDirectoryMatchesMapReference drives the open-addressing
// directory and the map-keyed reference through the same random
// Fill/Evict sequences and requires identical outcomes, counters and
// sharer counts after every operation, and identical entries
// throughout. Each sequence draws a node count, a power-of-two block
// stride from one line up to 64<<11 (strides that all collide under a
// plain modulo index) and a key span, then alternates phases that
// mostly fill (growing the table) with phases that mostly evict
// (deleting entries, some with probe runs that wrap the table's end).
// Odd seeds start from a released table that another directory had
// already grown and filled, as NewDirectory does when one is free.
func TestDirectoryMatchesMapReference(t *testing.T) {
	const seeds, ops = 200, 20000
	grew, grewReused, wraps := 0, 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := []int{1, 4, 16, 64}[rng.Intn(4)]
		stride := uint64(64) << rng.Intn(12)
		span := 16 << rng.Intn(11)
		base := uint64(rng.Int63n(1<<40)) &^ 63
		d, ref := NewDirectory(nodes), newRefDirectory(nodes)
		if seed%2 == 1 {
			d.reuse(filledTable(rand.New(rand.NewSource(^seed))))
			if err := checkDirTable(d, ref); err != nil {
				t.Fatalf("seed %d: reused table: %v", seed, err)
			}
		}
		start := len(d.slots)
		for i := 0; i < ops; i++ {
			block := base + uint64(rng.Intn(span))*stride
			op := dirOp{kind: uint8(rng.Intn(2)), node: rng.Intn(nodes), block: block}
			evictPct := 20
			if (i/4096)%2 == 1 {
				evictPct = 70
			}
			if rng.Intn(100) < evictPct {
				op.kind = 2
				// Evict a real sharer when the line is present, so
				// deletions actually happen.
				if e, ok := ref.entries[block]; ok {
					op.node = pickBit(rng, e.sharers)
				}
				if deleteWraps(d, ref, block, op.node) {
					wraps++
				}
			}
			if err := applyDirOp(d, ref, op); err != nil {
				t.Fatalf("seed %d (%d nodes), op %d: %v", seed, nodes, i, err)
			}
			if i%1024 == 1023 || i == ops-1 {
				if err := checkDirTable(d, ref); err != nil {
					t.Fatalf("seed %d (%d nodes), op %d: %v", seed, nodes, i, err)
				}
			}
		}
		if len(d.slots) > start {
			grew++
			if seed%2 == 1 {
				grewReused++
			}
		}
	}
	t.Logf("%d of %d sequences grew the table (%d from a reused one); %d deletes crossed the wrap",
		grew, seeds, grewReused, wraps)
	if grew == grewReused || grewReused == 0 || wraps == 0 {
		t.Fatalf("sequences grew a fresh table %d times and a reused one %d times, and deleted across the wrap %d times; want all three",
			grew-grewReused, grewReused, wraps)
	}
}

// filledTable returns the table of a directory that grew to hold up to
// a few thousand random lines, with every slot's owner left stale, as
// Release hands it on.
func filledTable(rng *rand.Rand) *dirTable {
	old := NewDirectory(64)
	for n := 64 << rng.Intn(6); n > 0; n-- {
		old.Fill(uint64(rng.Int63n(1<<40))&^63, rng.Intn(64), rng.Intn(2) == 0)
	}
	return &dirTable{slots: old.slots, owner: old.owner}
}

// TestDirectoryDeleteAcrossWrap pins the backward-shift deletion where
// a probe run wraps past the table's last slot: deleting the run's
// head must pull every later entry back one slot, across the wrap,
// without moving any entry before its home.
func TestDirectoryDeleteAcrossWrap(t *testing.T) {
	d := NewDirectory(4)
	last := dirMinSlots - 1
	var atLast, atZero []uint64
	for b := uint64(64); len(atLast) < 3 || len(atZero) < 1; b += 64 {
		switch d.home(b) {
		case last:
			atLast = append(atLast, b)
		case 0:
			atZero = append(atZero, b)
		}
	}
	// Three blocks homed at the last slot fill it and wrap to slots 0
	// and 1; a block homed at slot 0 is displaced to slot 2.
	for _, b := range append(atLast[:3], atZero[0]) {
		d.Fill(b, 1, false)
	}
	want := map[int]uint64{last: atLast[0], 0: atLast[1], 1: atLast[2], 2: atZero[0]}
	for i, b := range want {
		if d.slots[i].block != b {
			t.Fatalf("before delete: slot %d holds %#x, want %#x", i, d.slots[i].block, b)
		}
	}
	d.Evict(atLast[0], 1)
	want = map[int]uint64{last: atLast[1], 0: atLast[2], 1: atZero[0]}
	for i, b := range want {
		if d.slots[i].block != b || d.owner[i] != 1 {
			t.Fatalf("after delete: slot %d holds %#x owner %d, want %#x owner 1",
				i, d.slots[i].block, d.owner[i], b)
		}
	}
	if d.slots[2].sharers != 0 || d.count != 3 {
		t.Fatalf("after delete: slot 2 = %+v, count %d", d.slots[2], d.count)
	}
	for _, b := range append(atLast[1:3], atZero[0]) {
		if d.Sharers(b) != 1 {
			t.Fatalf("block %#x lost after delete", b)
		}
	}
}

// FuzzDirectoryOps decodes the input into Fill/Evict operations and
// requires the directory to match the map-keyed reference after each
// one. Byte 0 picks the node count, byte 1 the block stride (64 B up
// to 64<<11); each following 3-byte group is one operation: kind and
// node, then a 16-bit block index. Kind 3 evicts the line from its
// lowest-numbered holder, so deletions need no lucky node byte.
func FuzzDirectoryOps(f *testing.F) {
	f.Add([]byte{3, 0, 0x00, 1, 0, 0x41, 1, 0, 0x82, 1, 0, 0xc0, 1, 0})
	f.Add([]byte{15, 11, 0x05, 0, 1, 0x45, 0, 2, 0x05, 0, 3, 0x85, 0, 1, 0xc5, 0, 1})
	f.Add([]byte{63, 6, 0x00, 7, 0, 0x01, 7, 0, 0x42, 7, 0, 0x83, 7, 0, 0xc1, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nodes := 1 + int(data[0]&63)
		stride := uint64(64) << (data[1] % 12)
		d, ref := NewDirectory(nodes), newRefDirectory(nodes)
		for p := data[2:]; len(p) >= 3; p = p[3:] {
			op := dirOp{
				kind:  p[0] >> 6,
				node:  int(p[0]&63) % nodes,
				block: uint64(uint16(p[1])|uint16(p[2])<<8) * stride,
			}
			if op.kind == 3 {
				op.kind = 2
				if e, ok := ref.entries[op.block]; ok {
					op.node = bits.TrailingZeros64(e.sharers)
				}
			}
			if err := applyDirOp(d, ref, op); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkDirTable(d, ref); err != nil {
			t.Fatal(err)
		}
	})
}
