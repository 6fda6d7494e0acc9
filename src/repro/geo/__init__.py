"""Geospatial substrate: coordinates, trajectories, synthetic road routes."""

from .coords import EARTH_RADIUS_M, LocalFrame, haversine_m
from .trajectory import Trajectory, from_waypoints
from .routes import CitySpec, RoadNetwork

__all__ = [
    "EARTH_RADIUS_M",
    "LocalFrame",
    "haversine_m",
    "Trajectory",
    "from_waypoints",
    "CitySpec",
    "RoadNetwork",
]
