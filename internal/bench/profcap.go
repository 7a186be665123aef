package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/obs/prof"
	"xkernel/internal/sim"
)

// CaptureOptions tunes a profile-capture run.
type CaptureOptions struct {
	// Dir receives the profile files (cpu.pb.gz, heap.pb.gz,
	// mutex.pb.gz, block.pb.gz).
	Dir string
	// Stacks to drive while profiling; nil means the full layered
	// stack, whose anatomy exercises every boundary.
	Stacks []Stack
	// PerStack is the labeled-loop duration per stack; CPU sampling at
	// 100Hz needs a time budget, not an iteration count. Zero means
	// 400ms.
	PerStack time.Duration
	// Clients is the concurrency of the contention phase that follows
	// each serial loop (concurrent endpoints contending on the server
	// path and the simulated wire). Zero means 4; negative disables
	// the phase.
	Clients int
}

func (o *CaptureOptions) fill() {
	if len(o.Stacks) == 0 {
		o.Stacks = []Stack{ChanFragVIP}
	}
	if o.PerStack == 0 {
		o.PerStack = 400 * time.Millisecond
	}
	if o.Clients == 0 {
		o.Clients = 4
	}
}

// CaptureResult reports what a capture run produced.
type CaptureResult struct {
	CPUPath   string
	HeapPath  string
	MutexPath string
	BlockPath string
	// RPCs counts round trips completed while the profiles were
	// recording, for per-call cost arithmetic.
	RPCs int64
	// Stacks are the configurations that ran, in order.
	Stacks []string
}

// CaptureProfiles drives instrumented round trips under full pprof
// labeling while recording all four profiles into opt.Dir. Each stack
// runs a serial labeled loop (clean per-layer CPU attribution) and
// then a concurrent phase (endpoints racing on the server path, so the
// mutex and block profiles have something to say).
func CaptureProfiles(opt CaptureOptions) (*CaptureResult, error) {
	opt.fill()
	res := &CaptureResult{
		CPUPath:   filepath.Join(opt.Dir, "cpu.pb.gz"),
		HeapPath:  filepath.Join(opt.Dir, "heap.pb.gz"),
		MutexPath: filepath.Join(opt.Dir, "mutex.pb.gz"),
		BlockPath: filepath.Join(opt.Dir, "block.pb.gz"),
	}
	cap := prof.Capture{
		CPUPath:   res.CPUPath,
		HeapPath:  res.HeapPath,
		MutexPath: res.MutexPath,
		BlockPath: res.BlockPath,
		// Every contention event: the capture window is short and the
		// workload is the thing being measured.
		MutexFraction: 1,
	}
	if err := cap.Start(); err != nil {
		return nil, err
	}
	var firstErr error
	for _, stack := range opt.Stacks {
		res.Stacks = append(res.Stacks, string(stack))
		n, err := captureStack(stack, opt)
		res.RPCs += n
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", stack, err)
		}
	}
	if err := cap.Stop(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// captureStack runs one stack's serial and concurrent phases, counting
// completed round trips.
func captureStack(stack Stack, opt CaptureOptions) (int64, error) {
	tb, m, err := BuildInstrumented(stack, sim.Config{}, nil)
	if err != nil {
		return 0, err
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("stack", string(stack)))
	m.SetProfileContext(ctx)
	m.SetProfileLabels(true)

	var rpcs int64
	deadline := time.Now().Add(opt.PerStack)
	pprof.Do(ctx, pprof.Labels("layer", "app"), func(context.Context) {
		for time.Now().Before(deadline) {
			if err = tb.End.RoundTrip(nil); err != nil {
				return
			}
			rpcs++
		}
	})
	if err != nil {
		return rpcs, err
	}
	if opt.Clients <= 1 || tb.NewEndpoint == nil {
		return rpcs, nil
	}

	// Contention phase: concurrent clients racing through the shared
	// server stack and wire.
	var (
		wg    sync.WaitGroup
		total atomic.Int64
		mu    sync.Mutex
	)
	deadline = time.Now().Add(opt.PerStack / 2)
	for c := 0; c < opt.Clients; c++ {
		end, eerr := tb.NewEndpoint(c)
		if eerr != nil {
			err = eerr
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(ctx, pprof.Labels("layer", "app"), func(context.Context) {
				for time.Now().Before(deadline) {
					if rerr := end.RoundTrip(nil); rerr != nil {
						mu.Lock()
						if err == nil {
							err = rerr
						}
						mu.Unlock()
						return
					}
					total.Add(1)
				}
			})
		}()
	}
	wg.Wait()
	return rpcs + total.Load(), err
}

// ReportFromCapture decodes everything a capture run wrote and builds
// the per-layer report, options filled in.
func ReportFromCapture(res *CaptureResult) (*prof.Report, error) {
	parse := func(path string) (*prof.Profile, error) {
		p, err := prof.ParseFile(path)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	cpu, err := parse(res.CPUPath)
	if err != nil {
		return nil, err
	}
	heap, err := parse(res.HeapPath)
	if err != nil {
		return nil, err
	}
	mutex, err := parse(res.MutexPath)
	if err != nil {
		return nil, err
	}
	block, err := parse(res.BlockPath)
	if err != nil {
		return nil, err
	}
	rep := prof.BuildReport(cpu, heap, mutex, block)
	rep.Options = prof.ReportOptions{
		Stacks: res.Stacks,
		RPCs:   res.RPCs,
		Source: "xkprof",
	}
	return rep, nil
}
