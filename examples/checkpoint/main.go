// Checkpoint/resume walkthrough: long simulation campaigns can be
// snapshotted to disk and resumed exactly — the resumed execution is
// bit-identical to an uninterrupted one, because the checkpoint carries
// every vertex's algorithm state and random stream. Instance.Save
// writes a binary snapshot (checkpoint format v4, integrity-sealed);
// Instance.Load also reads the JSON checkpoints of older builds.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 16×16 torus-like grid with diagonals: 256 vertices.
	const side = 16
	id := func(r, c int) int { return r*side + c }
	var edges [][2]int
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			edges = append(edges,
				[2]int{id(r, c), id(r, (c+1)%side)},
				[2]int{id(r, c), id((r+1)%side, c)},
			)
		}
	}
	g, err := repro.NewGraph(side*side, edges)
	if err != nil {
		log.Fatal(err)
	}

	// Reference execution: run straight to stabilization.
	ref, err := repro.NewInstance(g, repro.WithSeed(2024))
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()
	refRounds, err := ref.RunUntilStabilized(1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	refMIS, _ := ref.MIS()
	fmt.Printf("reference: stabilized in %d rounds, |MIS| = %d\n", refRounds, len(refMIS))

	// Interrupted execution: run 10 rounds, checkpoint, "crash".
	first, err := repro.NewInstance(g, repro.WithSeed(2024))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		first.Step()
	}
	var snapshot bytes.Buffer
	if err := first.Save(&snapshot); err != nil {
		log.Fatal(err)
	}
	first.Close()
	fmt.Printf("checkpoint: %d-byte binary snapshot after %d rounds\n", snapshot.Len(), 10)

	// Resume in a brand-new process (simulated by a new instance with a
	// different seed — the checkpoint overrides everything).
	resumed, err := repro.NewInstance(g, repro.WithSeed(999))
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Load(&snapshot); err != nil {
		log.Fatal(err)
	}
	more, err := resumed.RunUntilStabilized(1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	resMIS, _ := resumed.MIS()

	fmt.Printf("resumed:   %d + %d rounds, |MIS| = %d\n", 10, more, len(resMIS))
	same := len(resMIS) == len(refMIS)
	if same {
		for i := range resMIS {
			if resMIS[i] != refMIS[i] {
				same = false
				break
			}
		}
	}
	fmt.Printf("identical to the uninterrupted run: %v (total rounds %d vs %d)\n",
		same && 10+more == refRounds, 10+more, refRounds)
	if err := g.VerifyMIS(resMIS); err != nil {
		log.Fatal(err)
	}
	fmt.Println("resumed MIS verified: independent and maximal")
}
