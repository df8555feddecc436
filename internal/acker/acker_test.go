package acker

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// collector records outcomes.
type collector struct {
	mu   sync.Mutex
	done map[uint64]Result
}

func newCollector() *collector { return &collector{done: map[uint64]Result{}} }

func (c *collector) cb(root uint64, r Result) {
	c.mu.Lock()
	c.done[root] = r
	c.mu.Unlock()
}

func (c *collector) get(root uint64) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.done[root]
	return r, ok
}

func TestSimpleTreeCompletes(t *testing.T) {
	c := newCollector()
	a := New(3, c.cb)
	const root, k1 = 100, 7777
	// Spout emits one tuple (key k1) in tree root.
	a.Anchor(root, k1)
	if a.Pending() != 1 {
		t.Fatalf("pending = %d", a.Pending())
	}
	// Terminal bolt acks it with no children: delta = k1.
	a.Ack(root, k1)
	if r, ok := c.get(root); !ok || r != Completed {
		t.Fatalf("result = %v, %v", r, ok)
	}
	if a.Pending() != 0 {
		t.Errorf("pending = %d", a.Pending())
	}
}

func TestMultiLevelTree(t *testing.T) {
	c := newCollector()
	a := New(3, c.cb)
	const root = 1
	k1, k2, k3 := uint64(11), uint64(22), uint64(33)
	a.Anchor(root, k1) // spout emits k1
	// Bolt A processes k1, emits k2 and k3: delta = k1^k2^k3.
	a.Ack(root, k1^k2^k3)
	if _, ok := c.get(root); ok {
		t.Fatal("tree completed early")
	}
	a.Ack(root, k2) // leaf acks
	if _, ok := c.get(root); ok {
		t.Fatal("tree completed early")
	}
	a.Ack(root, k3)
	if r, ok := c.get(root); !ok || r != Completed {
		t.Fatalf("result = %v, %v", r, ok)
	}
}

func TestAckPermutationProperty(t *testing.T) {
	// Any interleaving order of anchor/ack deltas completes the tree and
	// never completes it before the last delta arrives: XOR algebra.
	f := func(seed int64, nKeys uint8) bool {
		n := int(nKeys%16) + 1
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, n)
		seen := map[uint64]bool{0: true}
		for i := range keys {
			for {
				k := rng.Uint64()
				if !seen[k] {
					keys[i], seen[k] = k, true
					break
				}
			}
		}
		// Tree: spout emits keys[0]; each keys[i] acks while creating
		// keys[i+1] (a chain). Deltas: anchor(keys[0]),
		// ack(keys[i]^keys[i+1])..., ack(keys[n-1]).
		deltas := []uint64{keys[0]}
		for i := 0; i+1 < n; i++ {
			deltas = append(deltas, keys[i]^keys[i+1])
		}
		deltas = append(deltas, keys[n-1])
		rng.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })

		c := newCollector()
		a := New(3, c.cb)
		const root = 42
		for i, d := range deltas {
			a.Ack(root, d)
			_, done := c.get(root)
			if done != (i == len(deltas)-1) {
				// Early completion is possible if a shuffled prefix happens
				// to XOR to zero — legal for the algebra only when the
				// prefix is the whole multiset. With distinct random keys a
				// strict prefix XORs to zero with negligible probability,
				// but deltas share keys, so a prefix can legitimately
				// cancel. Accept early zero only if the remaining suffix
				// also XORs to zero overall.
				rest := uint64(0)
				for _, r := range deltas[i+1:] {
					rest ^= r
				}
				if rest != 0 {
					return false
				}
			}
		}
		r, ok := c.get(root)
		return ok && r == Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFail(t *testing.T) {
	c := newCollector()
	a := New(3, c.cb)
	a.Anchor(5, 123)
	a.Fail(5)
	if r, _ := c.get(5); r != Failed {
		t.Errorf("result = %v", r)
	}
	if a.Pending() != 0 {
		t.Error("failed tree still pending")
	}
	// Failing an unknown root is a no-op.
	a.Fail(999)
	if _, ok := c.get(999); ok {
		t.Error("unknown root reported")
	}
}

func TestRotationTimesOut(t *testing.T) {
	c := newCollector()
	a := New(3, c.cb)
	a.Anchor(1, 10)
	a.Rotate()
	a.Rotate()
	if _, ok := c.get(1); ok {
		t.Fatal("timed out too early (still within window)")
	}
	a.Rotate() // third rotation pushes it off the end
	if r, ok := c.get(1); !ok || r != TimedOut {
		t.Fatalf("result = %v, %v", r, ok)
	}
}

func TestProgressRefreshesTimeout(t *testing.T) {
	c := newCollector()
	a := New(3, c.cb)
	a.Anchor(1, 10)
	for i := 0; i < 10; i++ {
		a.Rotate()
		a.Ack(1, uint64(1000+i)) // progress: entry moves to newest bucket
	}
	if _, ok := c.get(1); ok {
		t.Fatal("active tree timed out despite progress")
	}
}

func TestMinimumBuckets(t *testing.T) {
	a := New(0, nil)
	a.Anchor(1, 1)
	a.Rotate()
	a.Rotate() // must not panic with clamped bucket count
}

// TestConcurrentAcks: 64 goroutines produce the deltas of 64 trees at
// once and hand them over a channel to the one goroutine that owns the
// acker, as receive goroutines hand frames to the Stream Manager's worker.
// Every tree completes.
func TestConcurrentAcks(t *testing.T) {
	c := newCollector()
	a := New(4, c.cb)
	const trees = 64
	type delta struct {
		root, delta uint64
		anchor      bool
	}
	deltas := make(chan delta)
	owned := make(chan struct{})
	go func() {
		defer close(owned)
		for d := range deltas {
			if d.anchor {
				a.Anchor(d.root, d.delta)
			} else {
				a.Ack(d.root, d.delta)
			}
		}
	}()
	var wg sync.WaitGroup
	for root := uint64(1); root <= trees; root++ {
		wg.Add(1)
		go func(root uint64) {
			defer wg.Done()
			k1, k2 := root*10+1, root*10+2
			deltas <- delta{root: root, delta: k1, anchor: true}
			deltas <- delta{root: root, delta: k1 ^ k2}
			deltas <- delta{root: root, delta: k2}
		}(root)
	}
	wg.Wait()
	close(deltas)
	<-owned
	for root := uint64(1); root <= trees; root++ {
		if r, ok := c.get(root); !ok || r != Completed {
			t.Errorf("tree %d = %v, %v", root, r, ok)
		}
	}
}

func BenchmarkAckerTree(b *testing.B) {
	a := New(3, func(uint64, Result) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := uint64(i + 1)
		k1, k2 := root^0xaaaa, root^0x5555
		a.Anchor(root, k1)
		a.Ack(root, k1^k2)
		a.Ack(root, k2)
	}
}
