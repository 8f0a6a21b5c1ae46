package nbody

import "testing"

// BenchmarkTreeBuild measures octree construction.
func BenchmarkTreeBuild(b *testing.B) {
	s := NewRandomSphere(4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BuildTree()
	}
}

// BenchmarkForceEval measures theta-criterion force evaluation per body.
func BenchmarkForceEval(b *testing.B) {
	s := NewRandomSphere(4096, 1)
	tr := s.BuildTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ForceOn(i % 4096)
	}
}

// BenchmarkComputeForces integrates fig6c's quick 16-apprank trajectory:
// 3,072 bodies, theta 0.5, DT 0.02, six force evaluations and steps per
// op, from the same initial state each time.
func BenchmarkComputeForces(b *testing.B) {
	start := NewRandomSphere(3072, 1)
	start.Theta, start.DT = 0.5, 0.02
	s := *start
	s.Bodies = make([]Body, len(start.Bodies))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s.Bodies, start.Bodies)
		for step := 0; step < 6; step++ {
			acc, _ := s.ComputeForces()
			s.Step(acc)
		}
	}
}

// BenchmarkORB measures the recursive bisection over 32 parts.
func BenchmarkORB(b *testing.B) {
	s := NewRandomSphere(8192, 1)
	pos := make([]Vec3, len(s.Bodies))
	for i, bd := range s.Bodies {
		pos[i] = bd.Pos
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ORB(pos, nil, 32)
	}
}
