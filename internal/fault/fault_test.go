package fault

import (
	"errors"
	"fmt"
	"testing"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{ErrCorruptTrace, ClassCorruptTrace},
		{fmt.Errorf("chunk 3: %w", ErrCorruptTrace), ClassCorruptTrace},
		{fmt.Errorf("restoring: %w", ErrCorruptSnapshot), ClassCorruptSnapshot},
		{fmt.Errorf("point 4: %w: boom", ErrPointPanic), ClassPanic},
		{fmt.Errorf("%w after 50ms", ErrTimeout), ClassTimeout},
		{fmt.Errorf("design x: %w", ErrInvalidOps), ClassInvalidOps},
		{errors.New("something else"), ClassUnknown},
	}
	for _, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("ClassOf(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
