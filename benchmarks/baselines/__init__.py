"""Comparison points the ablation benches run against, outside the system:
a Pastry substrate (``pastry``), Morton and Hilbert curves (``sfc``) and
SCRAP [11] (``scrap``)."""
