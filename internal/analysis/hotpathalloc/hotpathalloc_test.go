package hotpathalloc_test

import (
	"testing"

	"xkernel/internal/analysis/analysistest"
	"xkernel/internal/analysis/hotpathalloc"
)

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotpathalloc.Analyzer,
		"xkernel/internal/proto/hptest",
		"xkernel/internal/proto/tracetest",
		"xkernel/internal/obs/obstest",
		"xkernel/internal/obs/proftest",
		"xkernel/internal/obs/flighttest",
		"xkernel/internal/ledger/hltest",
		"xkernel/internal/wire/hwtest",
	)
}
