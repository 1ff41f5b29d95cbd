"""Decision-tree analysis and correction of ordered security rule sets.

The package models firewall-style components as ordered rules over typed
attributes, detects conflicts inside one component and between components
on a traffic path, and rewrites rule sets into disjoint, anomaly-free form
via relevant decision trees.
"""

__version__ = "0.1.0"
