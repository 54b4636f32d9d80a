"""Distance-based flocking and target interception for unicycle agents.

A library plus CLI for simulating teams of nonholonomic unicycles that
acquire a rigid target formation, flock along a shared time-varying
velocity known to a subset of agents, or intercept a moving target
seen only by a leader.  Inter-agent coordination uses distributed
variable-structure (signum) observers over the formation graph.

The package root exports nothing; import from the modules, for example
``from rigidflock.scenario import load_scenario``.
"""
