package main

import "testing"

// BenchmarkLayers runs one sub-benchmark per layer:
//
//	go test -run '^$' -bench Layers -benchmem .
func BenchmarkLayers(b *testing.B) {
	fx, err := newLayerFixture(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for _, lb := range layerBenches {
		b.Run(lb.name, func(b *testing.B) { lb.run(b, fx) })
	}
}
