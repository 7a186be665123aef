package settle

import (
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
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	go func() { <-release }()
	defer close(release)
	for runtime.NumGoroutine() < baseline+1 {
		runtime.Gosched()
	}
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

	release := make(chan struct{})
	go func() { <-release }()
	defer close(release)
	baseline := runtime.NumGoroutine() - 1
	for runtime.NumGoroutine() < baseline+1 {
		runtime.Gosched()
	}
	var leaky fakeTB
	Expect(&leaky, baseline-1, 0)
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
