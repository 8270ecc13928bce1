package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pricedGolden pins the SHA-256 of the -quick output of the figures
// priced on the models. They are deterministic, so their bytes must not
// move when the layouts or stores they price are restructured; the
// serial-against-parallel test compares two runs of one build and would
// not see such a move. A digest covers what Run writes, which is
// `hyve-bench -run <id> -quick -no-cache` stdout without its "=== id:
// title ===" header line.
var pricedGolden = map[string]string{
	"fig12": "080299d13942504be0b9c452c292291500c0596bc0bcd6f567052f86bb87d8f0",
	"fig19": "616571ef3c7231d2379b45d0dd06962accb633b43b7990b0a4593ceb6f6c7eb9",
	"fig20": "bf7419fa434add350f1222752f4adbbce0222eaad364e56c2a812a1a92099c46",
}

func TestPricedFiguresGolden(t *testing.T) {
	for id, want := range pricedGolden {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Options{Quick: true}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", id, buf.Len(), got, want)
		}
	}
}
