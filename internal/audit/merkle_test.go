package audit

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"minimaltcb/internal/merkle"
)

func testLeaves(n int) []merkle.Hash {
	leaves := make([]merkle.Hash, n)
	for i := range leaves {
		leaves[i] = merkle.LeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return leaves
}

func TestMerkleRootBasics(t *testing.T) {
	if got, want := merkle.Root(nil), merkle.Hash(sha256.Sum256(nil)); got != want {
		t.Fatalf("empty root %x, want sha256(nil) %x", got, want)
	}
	one := testLeaves(1)
	if merkle.Root(one) != one[0] {
		t.Fatal("single-leaf root is not the leaf hash")
	}
	two := testLeaves(2)
	if merkle.Root(two) != merkle.NodeHash(two[0], two[1]) {
		t.Fatal("two-leaf root is not node(l, r)")
	}
	// Domain separation: a leaf can't be confused with an interior node.
	if merkle.LeafHash([]byte("x")) == merkle.NodeHash(merkle.Hash{}, merkle.Hash{}) {
		t.Fatal("leaf and node prefixes collide")
	}
}

func TestInclusionProofAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := testLeaves(n)
		root := merkle.Root(leaves)
		for i := 0; i < n; i++ {
			proof := merkle.InclusionProof(leaves, i)
			if !merkle.VerifyInclusion(leaves[i], i, n, proof, root) {
				t.Fatalf("n=%d i=%d: valid proof rejected", n, i)
			}
			if merkle.VerifyInclusion(leaves[(i+1)%n], i, n, proof, root) && n > 1 {
				t.Fatalf("n=%d i=%d: proof accepted for the wrong leaf", n, i)
			}
		}
	}
}

// TestInclusionProofInteriorFlip is the interior-node leg of the tamper
// matrix: a single bit flipped in any proof node must break verification.
func TestInclusionProofInteriorFlip(t *testing.T) {
	leaves := testLeaves(16)
	root := merkle.Root(leaves)
	proof := merkle.InclusionProof(leaves, 5)
	for node := range proof {
		bad := make([]merkle.Hash, len(proof))
		copy(bad, proof)
		bad[node][0] ^= 0x01
		if merkle.VerifyInclusion(leaves[5], 5, 16, bad, root) {
			t.Fatalf("flip in proof node %d went undetected", node)
		}
	}
	badRoot := root
	badRoot[31] ^= 0x80
	if merkle.VerifyInclusion(leaves[5], 5, 16, proof, badRoot) {
		t.Fatal("flip in root went undetected")
	}
}

func TestConsistencyProofAllSizes(t *testing.T) {
	for n := 2; n <= 33; n++ {
		leaves := testLeaves(n)
		second := merkle.Root(leaves)
		for m := 1; m < n; m++ {
			first := merkle.Root(leaves[:m])
			proof := merkle.ConsistencyProof(leaves, m)
			if !merkle.VerifyConsistency(m, n, first, second, proof) {
				t.Fatalf("n=%d m=%d: valid consistency proof rejected", n, m)
			}
			// A different old root must not be consistent.
			badFirst := first
			badFirst[0] ^= 0xff
			if merkle.VerifyConsistency(m, n, badFirst, second, proof) {
				t.Fatalf("n=%d m=%d: forged old root accepted", n, m)
			}
			for node := range proof {
				bad := make([]merkle.Hash, len(proof))
				copy(bad, proof)
				bad[node][7] ^= 0x10
				if merkle.VerifyConsistency(m, n, first, second, bad) {
					t.Fatalf("n=%d m=%d: flip in consistency node %d undetected", n, m, node)
				}
			}
		}
	}
}

func TestConsistencySameAndTrivialSizes(t *testing.T) {
	leaves := testLeaves(8)
	root := merkle.Root(leaves)
	if !merkle.VerifyConsistency(8, 8, root, root, nil) {
		t.Fatal("equal sizes with equal roots rejected")
	}
	other := root
	other[3] ^= 1
	if merkle.VerifyConsistency(8, 8, root, other, nil) {
		t.Fatal("equal sizes with different roots accepted")
	}
	if !merkle.VerifyConsistency(0, 8, merkle.Hash{}, root, nil) {
		t.Fatal("empty-first consistency rejected")
	}
}
