package decodebounds_test

import (
	"testing"

	"repro/internal/lint/decodebounds"
	"repro/internal/lint/linttest"
)

func TestDecodeBounds(t *testing.T) {
	linttest.Run(t, "testdata", decodebounds.Analyzer, "a", "wire")
}
