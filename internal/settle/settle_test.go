package settle

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

func TestGoroutinesSettlesAfterExit(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() { <-release }()
	}
	for runtime.NumGoroutine() < baseline+4 {
		runtime.Gosched()
	}
	close(release)
	if n := Goroutines(baseline, time.Second); n > baseline {
		t.Fatalf("did not settle: baseline %d, now %d", baseline, n)
	}
}

func TestGoroutinesReportsStuck(t *testing.T) {
	baseline := quietCount()
	defer parkOne()()
	// A goroutine that never exits must be reported, not waited for
	// forever; zero patience keeps this to the yield-only phase.
	if n := Goroutines(baseline, 0); n <= baseline {
		t.Fatalf("reported settled with a parked goroutine outstanding")
	}
}

type fakeTB struct {
	helper bool
	errs   int
}

func (f *fakeTB) Helper()               { f.helper = true }
func (f *fakeTB) Errorf(string, ...any) { f.errs++ }

func TestExpect(t *testing.T) {
	var ok fakeTB
	Expect(&ok, runtime.NumGoroutine(), 0)
	if !ok.helper || ok.errs != 0 {
		t.Fatalf("clean settle reported an error (helper=%v errs=%d)", ok.helper, ok.errs)
	}

	baseline := quietCount()
	defer parkOne()()
	var leaky fakeTB
	Expect(&leaky, baseline, 0)
	if leaky.errs != 1 {
		t.Fatalf("leak not reported (errs=%d)", leaky.errs)
	}
}

func TestWatchParked(t *testing.T) {
	watch := make(chan *Watch)
	block := make(chan struct{})
	spin := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		watch <- WatchSelf()
		<-block // parked in a receive
		for {   // busy: never parked while spinning
			select {
			case <-spin:
				return
			default:
			}
		}
	}()
	w := <-watch
	for !w.Parked() {
		runtime.Gosched()
	}
	close(block)
	for i := 0; i < 100; i++ {
		if w.Parked() {
			t.Fatal("a spinning goroutine reported as parked")
		}
		runtime.Gosched()
	}
	close(spin)
	<-done
	for !w.Parked() { // an exited goroutine will do nothing more either
		runtime.Gosched()
	}
}

// parkOne starts a goroutine that stays parked until the returned release
// is called, and release returns only once it has exited: a goroutine
// still unwinding would be counted in the next test's baseline and leave
// that test when it exits, reading as settled.
func parkOne() (release func()) {
	watch := make(chan *Watch)
	unpark := make(chan struct{})
	go func() {
		watch <- WatchSelf()
		<-unpark
	}()
	w := <-watch
	return func() {
		close(unpark)
		for !w.Parked() { // released, it cannot park again: Parked means exited
			runtime.Gosched()
		}
	}
}

// quietCount is the goroutine count once no other goroutine is running
// or runnable. A goroutine on its way out, such as the previous test's
// runner after it signals completion, is one of those; the count is
// taken only after it is gone, so it cannot leave during the test. The
// wait is bounded by the yield budget Goroutines has, so a goroutine that
// never stops running cannot hang the test.
func quietCount() int {
	buf := make([]byte, 64<<10)
	for i := 0; i < spinRounds; i++ {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		if !othersActive(buf[:n]) {
			break
		}
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// othersActive reports whether an all-goroutine stack dump shows any
// goroutine but the first, the caller's own, running or runnable.
func othersActive(dump []byte) bool {
	for _, g := range bytes.Split(dump, []byte("\n\ngoroutine "))[1:] {
		_, state, _ := bytes.Cut(g, []byte("["))
		state = state[:bytes.IndexAny(state, ",]")]
		if s := string(state); s == "running" || s == "runnable" {
			return true
		}
	}
	return false
}
