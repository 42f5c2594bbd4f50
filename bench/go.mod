module crowdscope/bench

go 1.21

require crowdscope v0.0.0

replace crowdscope => ../
