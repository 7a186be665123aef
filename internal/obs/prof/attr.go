package prof

import "strings"

// Attribution rules, in order of strength (DESIGN.md §12):
//
//  1. A "layer" goroutine label planted by an obs.Wrap boundary (or the
//     bench harness's outer layer=app label). Labels carry the wrap
//     names — host-prefixed like "client/channel", "server/vip" — so a
//     labeled CPU table speaks exactly xkanatomy's vocabulary.
//  2. Package-path attribution from the sample's frames: the leaf-most
//     frame inside a repository protocol package names the layer
//     ("channel", "vip", "msg", "wire"). This is the only source for
//     heap/mutex/block samples — the runtime does not thread goroutine
//     labels through those profiles.
//  3. "runtime" for samples entirely inside the Go runtime (GC, the
//     scheduler, memory management), "other" for everything else.

// LabelLayer and LabelStack are the pprof.Do label keys the bench
// harness and the obs.Wrap boundaries plant.
const (
	LabelLayer = "layer"
	LabelStack = "stack"
)

// Synthetic layer names for samples no rule attributes.
const (
	LayerRuntime = "runtime"
	LayerOther   = "other"
)

// modulePrefix is this repository's import-path prefix as it appears
// in profile function names.
const modulePrefix = "xkernel/"

// pkgOfFunc extracts the import path from a profile function name:
// "xkernel/internal/rpc/channel.(*Protocol).serveRequest" yields
// "xkernel/internal/rpc/channel"; "runtime.mallocgc" yields "runtime".
func pkgOfFunc(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// funcTail reports the part of a function name after its package path:
// "(*Protocol).serveRequest" or "serveRequest".
func funcTail(fn string) string {
	pkg := pkgOfFunc(fn)
	if len(fn) > len(pkg) {
		return fn[len(pkg)+1:]
	}
	return fn
}

// shortPkg compresses an import path to the layer vocabulary the rest
// of the tooling uses: the last path element, except that the simulator
// is named "wire" to match the span layer the anatomy table prints.
func shortPkg(path string) string {
	rest := strings.TrimPrefix(path, modulePrefix)
	rest = strings.TrimPrefix(rest, "internal/")
	if rest == "sim" {
		return "wire"
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest
}

// pkgLayer maps one frame's function to a layer name, "" when the
// frame is not attributable (runtime, stdlib, test harness plumbing).
func pkgLayer(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	return shortPkg(pkgOfFunc(fn))
}

// runtimeFrame reports whether the frame belongs to the Go runtime or
// its immediate support packages.
func runtimeFrame(fn string) bool {
	for _, p := range []string{"runtime.", "runtime/", "sync.", "sync/", "internal/"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// SelfLayer attributes a sample to exactly one layer: the "layer"
// label when present (the innermost instrumented boundary the sample
// ran under), else the leaf-most frame in a repository package, else
// "runtime"/"other".
func SelfLayer(s *Sample) string {
	if l := s.Label(LabelLayer); l != "" {
		return l
	}
	return frameLayer(s)
}

// frameLayer is the package-path half of SelfLayer: leaf-most
// repository frame, else runtime/other.
func frameLayer(s *Sample) string {
	sawRuntime := false
	for _, fr := range s.Stack {
		if l := pkgLayer(fr.Function); l != "" {
			return l
		}
		if runtimeFrame(fr.Function) {
			sawRuntime = true
		}
	}
	if sawRuntime {
		return LayerRuntime
	}
	return LayerOther
}

// StackLayers reports every distinct layer present in the sample's
// frames, leaf-most first — the inclusive ("total") attribution: a
// sample whose stack passes through channel, fragment, and vip charges
// its value to all three totals. The label layer, when present and not
// already named by a frame, is appended last (it encloses the whole
// stack).
func StackLayers(s *Sample) []string {
	var out []string
	seen := func(l string) bool {
		for _, have := range out {
			if have == l {
				return true
			}
		}
		return false
	}
	for _, fr := range s.Stack {
		if l := pkgLayer(fr.Function); l != "" && !seen(l) {
			out = append(out, l)
		}
	}
	if l := s.Label(LabelLayer); l != "" && !seen(l) {
		out = append(out, l)
	}
	if len(out) == 0 {
		out = append(out, frameLayer(s))
	}
	return out
}

// LockClass names the lock a mutex/block sample waited on, in the
// lockorder pass's "(pkg.Type).field" vocabulary. The profile records
// the releasing call site, not the lock identity, so the name is a
// join: the releasing method's receiver with the repository's
// conventional field name "mu", else the bare "pkg.func" site. "" when
// no frame is attributable. The join holds because a lock is released
// by its owner's methods: the at-most-once core's channel lock, the one
// the engines' servers contend on, is released only by amo.Chan's.
func LockClass(s *Sample) string {
	for _, fr := range s.Stack {
		fn := fr.Function
		if runtimeFrame(fn) {
			continue
		}
		if !strings.HasPrefix(fn, modulePrefix) {
			continue
		}
		pkg := shortPkg(pkgOfFunc(fn))
		tail := funcTail(fn)
		if recv, ok := receiverOf(tail); ok {
			return "(" + pkg + "." + recv + ").mu"
		}
		return pkg + "." + tail
	}
	return ""
}

// receiverOf extracts the receiver type from a method tail like
// "(*Protocol).serveRequest" or "Network.Stats".
func receiverOf(tail string) (string, bool) {
	if strings.HasPrefix(tail, "(*") {
		if end := strings.IndexByte(tail, ')'); end > 2 {
			return tail[2:end], true
		}
		return "", false
	}
	dot := strings.IndexByte(tail, '.')
	if dot <= 0 {
		return "", false
	}
	recv := tail[:dot]
	// An identifier is a receiver only when a method part follows;
	// "init.0" compiler artifacts and "New.func1" closures are not.
	rest := tail[dot+1:]
	if recv == "" || rest == "" || strings.ContainsAny(recv, "()*") {
		return "", false
	}
	if recv[0] >= '0' && recv[0] <= '9' {
		return "", false
	}
	if strings.HasPrefix(rest, "func") || strings.Contains(rest, ".func") {
		return "", false
	}
	return recv, true
}
