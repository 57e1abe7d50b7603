"""Carbon-aware EV charging scheduling toolkit."""
