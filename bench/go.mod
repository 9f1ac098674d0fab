module probquorum/bench

go 1.22

require probquorum v0.0.0

replace probquorum => ../
