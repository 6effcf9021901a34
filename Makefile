.PHONY: install test bench bench-clean examples results clean

install:
	pip install -e . || pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

bench-clean:
	rm -rf benchmarks/results/.cache benchmarks/results/.warmstore

examples:
	python examples/quickstart.py
	python examples/covert_channel_duel.py
	python examples/genome_leak.py
	python examples/defense_tradeoffs.py
	python examples/recon_and_massage.py
	python examples/keystroke_spy.py

results:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean: bench-clean
	rm -rf .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
