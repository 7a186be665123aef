package chanpool

import (
	"sync"
	"testing"
	"time"
)

// waitParked spins until n callers are parked on p.
func waitParked(t *testing.T, p *Pool[int], n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Waiting() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers parked, want %d", p.Waiting(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestLoneCallerKeepsTheLowestSlot(t *testing.T) {
	p := New([]int{10, 11, 12, 13})
	for range 100 {
		i, v := p.Take()
		if i != 0 || v != 10 {
			t.Fatalf("took slot %d (%d), want slot 0", i, v)
		}
		p.Put(i)
	}
	i, _ := p.Take()
	j, v := p.Take()
	if i != 0 || j != 1 || v != 11 {
		t.Fatalf("two callers took slots %d and %d, want 0 and 1", i, j)
	}
	p.Put(i)
	if k, _ := p.Take(); k != 0 {
		t.Fatalf("took slot %d with slot 0 free, want 0", k)
	}
}

func TestParkedCallerWakesOnPut(t *testing.T) {
	p := New([]int{7})
	i, _ := p.Take()
	got := make(chan int, 1)
	go func() {
		_, v := p.Take()
		got <- v
	}()
	waitParked(t, p, 1)
	select {
	case <-got:
		t.Fatal("a caller took a slot while every slot was busy")
	default:
	}
	p.Put(i)
	if v := <-got; v != 7 {
		t.Fatalf("woken caller got %d, want 7", v)
	}
	if p.Waiting() != 0 || p.Busy() != 1 {
		t.Fatalf("waiting %d, busy %d after the hand-off; want 0 and 1", p.Waiting(), p.Busy())
	}
}

// A caller that puts its slot back and takes again at once must not get
// it past a caller already parked: with one slot, the parked caller runs
// before the looping caller's next call.
func TestParkedCallerBeatsALoopingCaller(t *testing.T) {
	p := New([]int{0})
	var mu sync.Mutex
	var order []string
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	i, _ := p.Take() // the looping caller's first call
	parked := make(chan struct{})
	go func() {
		j, _ := p.Take()
		note("parked")
		p.Put(j)
		close(parked)
	}()
	waitParked(t, p, 1)
	p.Put(i)
	for k := 2; k <= 3; k++ {
		i, _ = p.Take()
		note("loop")
		p.Put(i)
	}
	<-parked
	if len(order) != 3 || order[0] != "parked" {
		t.Fatalf("order %v: the looping caller barged past the parked one", order)
	}
}

func TestWaitersAreServedInArrivalOrder(t *testing.T) {
	p := New([]int{0})
	i, _ := p.Take()
	got := make(chan int, 3)
	for w := range 3 {
		go func() {
			j, _ := p.Take()
			got <- w
			p.Put(j)
		}()
		waitParked(t, p, w+1)
	}
	p.Put(i)
	for w := range 3 {
		if g := <-got; g != w {
			t.Fatalf("waiter %d served in place %d", g, w)
		}
	}
}

func TestDrainWaitsAndVisitsEachValueOnce(t *testing.T) {
	p := New([]int{0, 1, 2})
	i, _ := p.Take() // a call in flight
	seen := make(chan []int, 1)
	go func() {
		var vs []int
		p.Drain(func(v int) { vs = append(vs, v) })
		seen <- vs
	}()
	waitParked(t, p, 1) // Drain has taken the free slots and waits for ours
	select {
	case <-seen:
		t.Fatal("Drain returned with a slot still lent out")
	default:
	}
	p.Put(i)
	vs := <-seen
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 1 || vs[2] != 2 {
		t.Fatalf("Drain visited %v, want each value once in slot order", vs)
	}
	if p.Free() != 0 {
		t.Fatalf("%d slots free after Drain, want 0", p.Free())
	}
}

// Busy and Free read the same flags: at rest all free, and under load
// they always sum to Len and never leave [0, Len].
func TestGaugesAgreeUnderLoad(t *testing.T) {
	const slots, callers = 3, 6
	p := New(make([]int, slots))
	if p.Free() != slots || p.Busy() != 0 {
		t.Fatalf("at rest free %d, busy %d", p.Free(), p.Busy())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i, _ := p.Take()
				p.Put(i)
			}
		}()
	}
	for range 2000 {
		b := p.Busy()
		if b < 0 || b > slots {
			t.Errorf("busy %d outside [0, %d]", b, slots)
		}
	}
	close(stop)
	wg.Wait()
	if p.Free() != slots || p.Busy() != 0 || p.Waiting() != 0 {
		t.Fatalf("after load free %d, busy %d, waiting %d", p.Free(), p.Busy(), p.Waiting())
	}
}
