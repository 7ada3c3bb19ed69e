module autodist/benchmark

go 1.24

require autodist v0.0.0

replace autodist => ../
