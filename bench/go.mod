module pselinv/bench

go 1.22

require pselinv v0.0.0

replace pselinv => ../
