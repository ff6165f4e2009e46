package faulterr_test

import (
	"testing"

	"fpcache/internal/lint/faulterr"
	"fpcache/internal/lint/linttest"
)

func TestFixtures(t *testing.T) {
	linttest.Run(t, "testdata/a", faulterr.Analyzer)
}

func TestIgnoreDirective(t *testing.T) {
	linttest.Run(t, "testdata/ignored", faulterr.Analyzer)
}

func TestFixFixtureWants(t *testing.T) {
	linttest.Run(t, "testdata/fix", faulterr.Analyzer)
}
