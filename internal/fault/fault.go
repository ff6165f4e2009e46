// Package fault is the error taxonomy of the sweep stack. Every
// failure a long-running sweep can hit — a corrupt trace chunk, a torn
// warm-state snapshot, a panicking design composition, a point
// deadline — is classified against the sentinel errors here, so
// callers at every layer decide disposition (quarantine, degrade, fail)
// from the class instead of matching error strings.
//
// Producers wrap the sentinels with %w (fmt.Errorf or dedicated error
// types implementing Unwrap), consumers test with errors.Is or the
// ClassOf helper. The package is a leaf: it imports only the standard
// library and is safe to use from any internal package.
package fault

import "errors"

// Class names a fault category in reports (FailureReport JSON,
// log lines). The string values are part of the fpbench -json schema.
type Class string

// The fault classes. ClassNone is the zero value ("no fault");
// ClassUnknown is any error that wraps no sentinel.
const (
	ClassNone            Class = ""
	ClassCorruptTrace    Class = "corrupt-trace"
	ClassCorruptSnapshot Class = "corrupt-snapshot"
	ClassPanic           Class = "panic"
	ClassTimeout         Class = "timeout"
	ClassInvalidOps      Class = "invalid-ops"
	ClassUnknown         Class = "unknown"
)

// The sentinel errors of the taxonomy. Producers wrap these; a single
// error may wrap at most one (the first match in classOrder wins).
var (
	// ErrCorruptTrace marks trace-file corruption: a failed chunk CRC,
	// a truncated frame, a lying index, an undecodable record.
	ErrCorruptTrace = errors.New("corrupt trace")
	// ErrCorruptSnapshot marks warm-state snapshot corruption or an
	// identity/geometry mismatch discovered while restoring.
	ErrCorruptSnapshot = errors.New("corrupt snapshot")
	// ErrPointPanic marks a sweep point whose job panicked; the
	// wrapping error carries the recovered value and stack.
	ErrPointPanic = errors.New("sweep point panicked")
	// ErrTimeout marks a sweep point that exceeded its deadline.
	ErrTimeout = errors.New("sweep point timed out")
	// ErrInvalidOps marks a design that emitted a structurally invalid
	// operation DAG (dcache.ValidateOps failure).
	ErrInvalidOps = errors.New("invalid op list")
)

// classOrder pairs each sentinel with its class for classification.
var classOrder = []struct {
	err   error
	class Class
}{
	{ErrPointPanic, ClassPanic},
	{ErrTimeout, ClassTimeout},
	{ErrCorruptSnapshot, ClassCorruptSnapshot},
	{ErrCorruptTrace, ClassCorruptTrace},
	{ErrInvalidOps, ClassInvalidOps},
}

// ClassOf classifies an error against the taxonomy: the class of the
// first sentinel it wraps, ClassUnknown for an unclassified error, and
// ClassNone for nil.
func ClassOf(err error) Class {
	if err == nil {
		return ClassNone
	}
	for _, c := range classOrder {
		if errors.Is(err, c.err) {
			return c.class
		}
	}
	return ClassUnknown
}
