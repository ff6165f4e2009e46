package determinism_test

import (
	"testing"

	"fpcache/internal/lint/determinism"
	"fpcache/internal/lint/linttest"
)

func TestFixtures(t *testing.T) {
	linttest.Run(t, "testdata/a", determinism.Analyzer)
}

func TestIgnoreDirective(t *testing.T) {
	linttest.Run(t, "testdata/ignored", determinism.Analyzer)
}

func TestReasonlessIgnoreReportsAndSuppressesNothing(t *testing.T) {
	linttest.RunExpect(t, "testdata/badignore", determinism.Analyzer, []string{
		`//fplint:ignore needs an analyzer name and a reason`,
		`time\.Now in a deterministic package`,
	})
}

func TestFixFixtureWants(t *testing.T) {
	linttest.Run(t, "testdata/fix", determinism.Analyzer)
}
