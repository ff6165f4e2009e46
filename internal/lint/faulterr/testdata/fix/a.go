// Fixture for error arguments formatted without %w: %v and %s
// flatten the error to text, and so does a flagged verb.
package a

import (
	"errors"
	"fmt"
)

func Restore(path string, cause error) error {
	return fmt.Errorf("restore %s: %v", path, cause) // want `fmt\.Errorf without %w`
}

func Seal(err error) error {
	return fmt.Errorf("seal snapshot: %s", err) // want `fmt\.Errorf without %w`
}

func Legacy() error {
	return errors.New("unclassified") // want `bare errors\.New`
}

func Padded(err error) error {
	// %-20s carries a flag and a width; it is still not %w.
	return fmt.Errorf("padded %-20s", err) // want `fmt\.Errorf without %w`
}
