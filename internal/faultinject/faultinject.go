// Package faultinject is a deterministic, seedable fault-injection
// harness for sweep execution: it turns a textual fault spec into
// scheduled point failures (panics, errors, sleeps) and I/O stream
// corruption (bit flips, truncation). Everything it injects is a pure
// function of the spec and the injection sites' own counters — never
// wall-clock time or math/rand — so a faulted sweep is reproducible
// and its fault-tolerance behavior can be pinned by tests.
//
// The injector stays out of production code paths: internal/system and
// internal/experiments expose plain wrap hooks (WarmCache.WrapReader,
// Options.Injector) that are nil in normal runs.
package faultinject

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Injection sites. Point faults fire inside a sweep point's job;
// stream faults wrap an I/O stream opened at the named site.
const (
	// SitePoint is the sweep-point job itself.
	SitePoint = "point"
	// SiteSnapshotRead / SiteSnapshotWrite are warm-state cache streams.
	SiteSnapshotRead  = "snapshot-read"
	SiteSnapshotWrite = "snapshot-write"
	// SiteTraceRead is a trace-file read stream.
	SiteTraceRead = "trace-read"
)

// action is what a rule does when it fires.
type action int

const (
	actPanic action = iota
	actSleep
	actError
	actFlipBit
	actTruncate
)

var actionNames = map[string]action{
	"panic":    actPanic,
	"sleep":    actSleep,
	"error":    actError,
	"flipbit":  actFlipBit,
	"truncate": actTruncate,
}

// rule is one parsed clause of a fault spec.
type rule struct {
	site string
	act  action

	// Point-rule selectors: which (sweep, point) the rule fires on;
	// -1 matches any.
	sweep, point int
	// ms is the sleep duration for act == actSleep.
	ms int

	// Stream-rule selectors: nth picks one stream ordinal at the site
	// (-1: every stream).
	nth int
	// offset/bit locate the flipped bit; at is the truncation point.
	offset int64
	bit    uint
	at     int64
}

// Injector schedules faults from a parsed spec. All counters are
// mutex-guarded; point faults are keyed by (sweep, point), so they are
// independent of worker interleaving. Stream ordinals at an I/O site
// increment in open order, which is deterministic in serial sweeps;
// parallel sweeps should prefer every-stream rules (no nth=) when
// byte-parity across worker counts matters.
type Injector struct {
	mu      sync.Mutex
	rules   []*rule
	streams map[string]int
	sweeps  int
}

// Parse compiles a fault spec: semicolon-separated clauses of the form
//
//	site:action[:key=value[,key=value...]]
//
// Sites: point, snapshot-read, snapshot-write, trace-read.
// Point actions (site "point"):
//
//	panic                    panic the job (optionally sweep=/point=)
//	error                    fail the job with a permanent error
//	sleep:ms=D               sleep D milliseconds inside the job
//
// Stream actions (I/O sites):
//
//	flipbit:offset=O[,bit=B][,nth=K]   XOR bit B of the byte at stream
//	                                   offset O (corruption in flight)
//	truncate:at=O[,nth=K]              end the stream after O bytes
//
// Selectors sweep=, point=, and nth= default to matching everything.
// Every parameter value must be non-negative. An empty spec yields an
// injector that injects nothing.
func Parse(spec string) (*Injector, error) {
	in := &Injector{streams: map[string]int{}}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		in.rules = append(in.rules, r)
	}
	return in, nil
}

func parseClause(clause string) (*rule, error) {
	parts := strings.SplitN(clause, ":", 3)
	if len(parts) < 2 {
		return nil, fmt.Errorf("faultinject: clause %q: want site:action[:params]", clause)
	}
	site := parts[0]
	switch site {
	case SitePoint, SiteSnapshotRead, SiteSnapshotWrite, SiteTraceRead:
	default:
		return nil, fmt.Errorf("faultinject: unknown site %q in %q", site, clause)
	}
	act, ok := actionNames[parts[1]]
	if !ok {
		return nil, fmt.Errorf("faultinject: unknown action %q in %q", parts[1], clause)
	}
	pointSite := site == SitePoint
	switch act {
	case actPanic, actSleep, actError:
		if !pointSite {
			return nil, fmt.Errorf("faultinject: action %q needs site point in %q", parts[1], clause)
		}
	case actFlipBit, actTruncate:
		if pointSite {
			return nil, fmt.Errorf("faultinject: action %q needs an I/O site in %q", parts[1], clause)
		}
	}
	r := &rule{site: site, act: act, sweep: -1, point: -1, nth: -1}
	if len(parts) == 3 {
		for _, kv := range strings.Split(parts[2], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: bad param %q in %q", kv, clause)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: param %s in %q: %v", kv, clause, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("faultinject: param %s in %q is negative", kv, clause)
			}
			switch k {
			case "sweep":
				r.sweep = int(n)
			case "point":
				r.point = int(n)
			case "ms":
				r.ms = int(n)
			case "nth":
				r.nth = int(n)
			case "offset":
				r.offset = n
			case "bit":
				if n > 7 {
					return nil, fmt.Errorf("faultinject: bit %d out of [0,7] in %q", n, clause)
				}
				r.bit = uint(n)
			case "at":
				r.at = n
			default:
				return nil, fmt.Errorf("faultinject: unknown param %q in %q", k, clause)
			}
		}
	}
	return r, nil
}

// Active reports whether the spec injects anything.
func (in *Injector) Active() bool { return in != nil && len(in.rules) > 0 }

// NextSweep allocates the next sweep ordinal, so point rules with a
// sweep= selector can target one pmap fan-out among several in an
// experiment. Sweeps are numbered in launch order, which is
// deterministic (experiments launch their sweeps sequentially). A nil
// injector numbers every sweep 0.
func (in *Injector) NextSweep() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.sweeps
	in.sweeps++
	return n
}

// Point fires point-site rules for (sweep, point). It may sleep,
// panic, or return an error by scheduled design; a nil return means
// the point proceeds unfaulted. The rules read no counters, so
// scheduling is identical at any worker count.
func (in *Injector) Point(sweep, point int) error {
	if in == nil {
		return nil
	}
	for _, r := range in.rules {
		if r.site != SitePoint || (r.sweep >= 0 && r.sweep != sweep) || (r.point >= 0 && r.point != point) {
			continue
		}
		switch r.act {
		case actSleep:
			time.Sleep(time.Duration(r.ms) * time.Millisecond)
		case actPanic:
			panic(fmt.Sprintf("faultinject: scheduled panic at sweep %d point %d", sweep, point))
		case actError:
			return fmt.Errorf("faultinject: scheduled permanent fault at sweep %d point %d", sweep, point)
		}
	}
	return nil
}

// siteRules returns the stream rules that apply to ordinal n at site.
func (in *Injector) siteRules(site string, n int) []*rule {
	var out []*rule
	for _, r := range in.rules {
		if r.site != site {
			continue
		}
		if r.nth >= 0 && r.nth != n {
			continue
		}
		out = append(out, r)
	}
	return out
}

// ordinal assigns the next stream ordinal at a site.
func (in *Injector) ordinal(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.streams[site]
	in.streams[site] = n + 1
	return n
}

// hasSite reports whether any rule targets the site at all, so
// unfaulted sites pass streams through without wrapping.
func (in *Injector) hasSite(site string) bool {
	if in == nil {
		return false
	}
	for _, r := range in.rules {
		if r.site == site {
			return true
		}
	}
	return false
}

// Reader wraps an I/O stream opened at a site. The wrapped reader
// applies the site's scheduled faults as bytes flow through; with no
// rules for the site, r is returned untouched.
func (in *Injector) Reader(site string, r io.Reader) io.Reader {
	if !in.hasSite(site) {
		return r
	}
	return &faultStream{r: r, rules: in.siteRules(site, in.ordinal(site))}
}

// Writer is Reader for write streams.
func (in *Injector) Writer(site string, w io.Writer) io.Writer {
	if !in.hasSite(site) {
		return w
	}
	return &faultStream{w: w, rules: in.siteRules(site, in.ordinal(site))}
}

// ReadSeeker wraps a seekable stream (trace files). Faults are keyed
// to absolute stream offsets, so seeking reads hit the same scheduled
// corruption wherever they enter the stream.
func (in *Injector) ReadSeeker(site string, rs io.ReadSeeker) io.ReadSeeker {
	if !in.hasSite(site) {
		return rs
	}
	return &faultSeeker{faultStream: faultStream{r: rs, rules: in.siteRules(site, in.ordinal(site))}, rs: rs}
}

// faultStream applies stream rules to one reader or writer. pos is the
// absolute stream offset of the next byte.
type faultStream struct {
	r     io.Reader
	w     io.Writer
	rules []*rule
	pos   int64
}

// apply mutates the in-flight buffer (whose first byte sits at
// absolute offset pos) per the flip-bit rules, and bounds n by the
// tightest truncation point. It returns the adjusted length and
// whether a truncation rule cut the stream.
func (s *faultStream) apply(p []byte, n int) (int, bool) {
	truncated := false
	for _, r := range s.rules {
		switch r.act {
		case actTruncate:
			if s.pos+int64(n) > r.at {
				if k := r.at - s.pos; k < int64(n) {
					if k < 0 {
						k = 0
					}
					n = int(k)
					truncated = true
				}
			}
		case actFlipBit:
			if r.offset >= s.pos && r.offset < s.pos+int64(n) {
				p[r.offset-s.pos] ^= 1 << r.bit
			}
		}
	}
	return n, truncated
}

func (s *faultStream) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	n, truncated := s.apply(p, n)
	s.pos += int64(n)
	if truncated {
		return n, io.EOF
	}
	return n, err
}

func (s *faultStream) Write(p []byte) (int, error) {
	// Corrupt a copy: the caller's buffer is not ours to mutate.
	q := append([]byte(nil), p...)
	n, truncated := s.apply(q, len(q))
	wrote, err := s.w.Write(q[:n])
	s.pos += int64(wrote)
	if err != nil {
		return wrote, err
	}
	if truncated {
		// A truncating writer models a torn write: the caller sees
		// success while bytes past the truncation point never land.
		return len(p), nil
	}
	return wrote, nil
}

// faultSeeker adds offset-tracking Seek on top of faultStream.
type faultSeeker struct {
	faultStream
	rs io.ReadSeeker
}

func (s *faultSeeker) Seek(offset int64, whence int) (int64, error) {
	pos, err := s.rs.Seek(offset, whence)
	if err == nil {
		s.pos = pos
	}
	return pos, err
}
