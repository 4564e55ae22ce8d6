package amp_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// TestEngineEquivalence extends the digest file's ampchatter seeds
// 1–120 to seeds 121–220: the sha256 over their Result digests. With
// each trace's first line prefixed "calendar: ", the label it carried
// then, the one recorded while both engines ran and agreed was
// d2da6ac6…; it moved once since, when a paused process began to keep
// its own self-sends (db3ef8a0… before).
func TestEngineEquivalence(t *testing.T) {
	m := &models.AmpChatter{}
	h := sha256.New()
	for seed := uint64(121); seed <= 220; seed++ {
		res := m.Run(m.Generate(seed))
		if res.Failed {
			scenario.Reportf(t, m.Name(), seed, "oracle failure: %s", res.Reason)
		}
		fmt.Fprintf(h, "%s\n", res.Digest())
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "55a0e716123a8c86b95999404056e38a3af1a2afce52203255e78439fb94c437"; got != want {
		t.Fatalf("ampchatter seeds 121–220 digest %s, want %s", got, want)
	}
}
