module distbasics/bench

go 1.23

require distbasics v0.0.0

replace distbasics => ../
