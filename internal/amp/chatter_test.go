package amp_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// TestEngineEquivalence extends the digest file's ampchatter seeds
// 1–120 to seeds 121–220: the sha256 over their Result digests is the
// one recorded while both engines ran and agreed.
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
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "d2da6ac649a4d7fdda35d6e62ad9c42e290f67b5806d03193f4b4a0eda4a2d19"; got != want {
		t.Fatalf("ampchatter seeds 121–220 digest %s, want %s", got, want)
	}
}
