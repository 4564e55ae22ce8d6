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
// then, it is the one recorded while both engines ran and agreed
// (d2da6ac6…).
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
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "db3ef8a0f481ab8e5a908a9029a15f826873e612b46d48f686fa1e50d2327bd6"; got != want {
		t.Fatalf("ampchatter seeds 121–220 digest %s, want %s", got, want)
	}
}
